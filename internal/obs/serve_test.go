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
	// registered metric works; register one unique to this test run.
	name := uniqueName("testserve.hits")
	c := NewCounter(name)
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
	if got := body.Eventcap[name]; got.String() != "3" {
		t.Fatalf("%s = %q, want 3", name, got)
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

// TestDebugMuxServesOnlyDiagnostics: the expvar and pprof routes
// serve; the removed Prometheus exposition, run dashboard and flight
// recorder routes are not found.
func TestDebugMuxServesOnlyDiagnostics(t *testing.T) {
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()
	for _, c := range []struct {
		path   string
		status int
	}{
		{"/debug/vars", http.StatusOK},
		{"/debug/pprof/", http.StatusOK},
		{"/metrics", http.StatusNotFound},
		{"/debug/runs", http.StatusNotFound},
		{"/debug/trace", http.StatusNotFound},
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

func TestServeMetricsExposesVarsAndPprof(t *testing.T) {
	name := uniqueName("test.serve.marker")
	marker := NewCounter(name)
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
	if !strings.Contains(vars, `"eventcap"`) || !strings.Contains(vars, `"`+name+`":123`) {
		t.Errorf("/debug/vars missing eventcap metrics:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.400s", idx)
	}
}
