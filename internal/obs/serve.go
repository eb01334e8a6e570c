package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugMux builds the diagnostics mux served by ServeMetrics: the expvar
// map at /debug/vars and the pprof handlers under /debug/pprof/.
// Exported so tests can drive the routes through httptest without
// binding a socket.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMetrics starts an HTTP server on addr exposing the expvar map at
// /debug/vars (including the "eventcap" metric set) and the pprof
// handlers under /debug/pprof/, for inspecting a long sweep while it
// runs. It returns the bound address (useful with ":0") and a stop
// function that shuts the server down.
//
// The server runs on its own mux — it never touches
// http.DefaultServeMux — and serves only diagnostics; bind it to
// localhost unless the network is trusted.
func ServeMetrics(addr string) (boundAddr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: DebugMux(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		err := srv.Close()
		if serveErr := <-done; serveErr != nil && serveErr != http.ErrServerClosed && err == nil {
			err = serveErr
		}
		return err
	}, nil
}
