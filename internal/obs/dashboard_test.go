package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func getDashboard(t *testing.T, r *Registry) string {
	t.Helper()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestDashboardEmptyRegistry(t *testing.T) {
	body := getDashboard(t, NewRegistry())
	for _, want := range []string{"no runs in flight", "no completed runs", "/debug/vars", "/debug/pprof", "active (0)", "completed (0)"} {
		if !strings.Contains(body, want) {
			t.Errorf("empty dashboard missing %q", want)
		}
	}
}

func TestDashboardRendersActiveAndCompleted(t *testing.T) {
	r := NewRegistry()
	prog := NewProgress()
	prog.Enqueued(4)
	prog.Started()
	prog.Finished(50*time.Millisecond, nil)
	span := BeginSpan("fig6a")
	r.Begin("fig6a", "sha256:deadbeef", prog, span)

	done := r.Begin("fig3a", "sha256:feedface", nil, nil)
	done.Complete(&Manifest{
		Experiment: "fig3a",
		Config:     ManifestConfig{Engine: "auto"},
		WallMillis: 1500,
		Phases: &Phase{
			Name: "fig3a", Count: 1, WallMicros: 1_500_000,
			Phases: []*Phase{
				{Name: "solve", Count: 1, WallMicros: 500_000},
				{Name: "sim.run", Count: 3, WallMicros: 1_000_000},
			},
		},
	})
	failed := r.Begin("fig4a", "", nil, nil)
	failed.Complete(&Manifest{Experiment: "fig4a", Config: ManifestConfig{Engine: "auto"}, Error: "boom"})

	body := getDashboard(t, r)
	for _, want := range []string{
		"active (1)", "fig6a", "1/4 jobs", "sha256:deadbeef",
		"completed (2)", "fig3a", "1.5s", "solve", "sim.run", "class=\"bar",
		"fig4a", `class="err"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q\n%s", want, body)
		}
	}
}

func TestDashboardActiveWithoutProgressSaysRunning(t *testing.T) {
	r := NewRegistry()
	r.Begin("bare", "", nil, nil)
	if body := getDashboard(t, r); !strings.Contains(body, "running") {
		t.Error("active run without Progress should render as \"running\"")
	}
}

// TestDashboardConcurrentRegistration serves the dashboard while runs
// register and complete underneath it; the race detector guards the
// registry's locking.
func TestDashboardConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				a := r.Begin(fmt.Sprintf("run%d.%d", i, j), "", NewProgress(), BeginSpan("x"))
				a.Complete(&Manifest{Experiment: "x"})
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Get(srv.URL)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %s", resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPhaseBars(t *testing.T) {
	if phaseBars(nil) != nil {
		t.Fatal("nil phase should yield no bars")
	}
	root := &Phase{Name: "run", Count: 1, WallMicros: 100}
	bars := phaseBars(root)
	if len(bars) != 1 || bars[0].Name != "run" {
		t.Fatalf("leaf-only bars = %v", bars)
	}
	root.Phases = []*Phase{
		{Name: "a", WallMicros: 75, Count: 1},
		{Name: "b", WallMicros: 25, Count: 1},
		{Name: "c", WallMicros: 0, Count: 1},
	}
	bars = phaseBars(root)
	if len(bars) != 3 {
		t.Fatalf("bars = %d", len(bars))
	}
	if bars[0].Width != 120 || bars[1].Width != 40 {
		t.Fatalf("widths = %d/%d, want 120/40 of 160", bars[0].Width, bars[1].Width)
	}
	if bars[2].Width != 1 {
		t.Fatalf("zero-wall bar width = %d, want the 1px floor", bars[2].Width)
	}
}
