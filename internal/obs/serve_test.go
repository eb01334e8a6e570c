package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugMuxServesVars(t *testing.T) {
	// The counter registry is package-global, so any previously
	// registered metric works; register one unique to this test.
	c := NewCounter("testserve.hits")
	c.Add(3)
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	var body struct {
		Eventcap map[string]json.Number `json:"eventcap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	if got := body.Eventcap["testserve.hits"]; got.String() != "3" {
		t.Fatalf("testserve.hits = %q, want 3", got)
	}
}

func TestDebugMuxServesPprofIndex(t *testing.T) {
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "goroutine") {
		t.Fatalf("/debug/pprof/ status=%d body=%.80s", resp.StatusCode, data)
	}
}

func TestHandleDebugRegistersRoute(t *testing.T) {
	HandleDebug("/debug/testserve", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("custom-route-ok"))
	}))
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/testserve")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if string(data) != "custom-route-ok" {
		t.Fatalf("custom debug route body = %q", data)
	}

	// Re-registration replaces the handler (last wins), so repeated CLI
	// runs in one process can re-arm their routes. The replacement shows
	// up in muxes built after the call.
	HandleDebug("/debug/testserve", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("replaced"))
	}))
	srv2 := httptest.NewServer(DebugMux())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/debug/testserve")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data2, _ := io.ReadAll(resp2.Body)
	if string(data2) != "replaced" {
		t.Fatalf("replaced debug route body = %q", data2)
	}
}

// TestDebugMuxServesOnlyDiagnostics: expvar, pprof and HandleDebug
// routes serve; the removed Prometheus exposition and run dashboard
// routes are not found.
func TestDebugMuxServesOnlyDiagnostics(t *testing.T) {
	HandleDebug("/debug/testserve3", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()
	for _, c := range []struct {
		path   string
		status int
	}{
		{"/debug/vars", http.StatusOK},
		{"/debug/pprof/", http.StatusOK},
		{"/debug/testserve3", http.StatusOK},
		{"/metrics", http.StatusNotFound},
		{"/debug/runs", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
	}
}

func TestServeMetricsIncludesDebugHandlers(t *testing.T) {
	HandleDebug("/debug/testserve2", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("live-server-ok"))
	}))
	addr, stop, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/testserve2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if string(data) != "live-server-ok" {
		t.Fatalf("ServeMetrics custom route body = %q", data)
	}
}

func TestServeMetricsExposesVarsAndPprof(t *testing.T) {
	marker := NewCounter("test.serve.marker")
	marker.Add(123)
	addr, stop, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"eventcap"`) || !strings.Contains(vars, `"test.serve.marker":123`) {
		t.Errorf("/debug/vars missing eventcap metrics:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.400s", idx)
	}
}
