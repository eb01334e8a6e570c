package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStatsViewSparklineConverges(t *testing.T) {
	v := &StatsView{}
	if _, ok := v.Last(); ok {
		t.Fatal("empty view reported a last report")
	}
	if v.Sparkline() != "" {
		t.Fatalf("empty view sparkline = %q", v.Sparkline())
	}
	for _, hw := range []float64{0.32, 0.16, 0.08, 0.04} {
		v.Publish(exampleReport(0.8, hw))
	}
	last, ok := v.Last()
	if !ok || last.HalfWidth != 0.04 {
		t.Fatalf("last = %+v ok=%v, want half-width 0.04", last, ok)
	}
	spark := []rune(v.Sparkline())
	if len(spark) != 4 {
		t.Fatalf("sparkline %q, want 4 bars", string(spark))
	}
	// Halving half-widths must render as non-increasing bars ending at
	// the lowest level.
	for i := 1; i < len(spark); i++ {
		if spark[i] > spark[i-1] {
			t.Fatalf("sparkline %q not converging", string(spark))
		}
	}
	if spark[0] != sparkRunes[len(sparkRunes)-1] || spark[3] != sparkRunes[0] {
		t.Fatalf("sparkline %q, want full-to-lowest ramp", string(spark))
	}

	// A nil view (run without stats) is a safe no-op everywhere.
	var nilView *StatsView
	nilView.Publish(exampleReport(0.5, 0.1))
	if _, ok := nilView.Last(); ok || nilView.Sparkline() != "" {
		t.Fatal("nil StatsView not inert")
	}
}

func TestStatsViewRingBounded(t *testing.T) {
	v := &StatsView{}
	for i := 0; i < 3*statsViewRing; i++ {
		v.Publish(exampleReport(0.8, 0.1))
	}
	if n := len([]rune(v.Sparkline())); n != statsViewRing {
		t.Fatalf("ring grew to %d bars, cap %d", n, statsViewRing)
	}
}

// TestDashboardShowsQoM drives the /debug/runs handler end to end: an
// active run with published stats shows its CI band and sparkline, a
// completed record its final estimate.
func TestDashboardShowsQoM(t *testing.T) {
	reg := NewRegistry()
	a := reg.Begin("dash-stats", "sha256:feed", nil, nil)
	a.Stats.Publish(exampleReport(0.8125, 0.0625))
	a.Stats.Publish(exampleReport(0.8125, 0.0312))

	done := reg.Begin("dash-done", "sha256:dead", nil, nil)
	final := exampleReport(0.75, 0.01)
	done.Complete(&Manifest{
		Experiment: "dash-done",
		Config:     ManifestConfig{Engine: "kernel"},
		Stats:      &final,
	})

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	if !strings.Contains(body, "0.8125 ± 0.0312") {
		t.Errorf("active run CI band missing from dashboard:\n%s", body)
	}
	if !strings.ContainsRune(body, sparkRunes[len(sparkRunes)-1]) {
		t.Errorf("active run sparkline missing from dashboard")
	}
	if !strings.Contains(body, "0.7500 ± 0.0100") {
		t.Errorf("completed run CI band missing from dashboard")
	}
	a.Complete(&Manifest{Experiment: "dash-stats"})
}
