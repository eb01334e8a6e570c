package obs

import (
	"sort"
	"strings"
	"sync"
	"time"

	"eventcap/internal/stats"
)

// Registry metrics: runs registered since process start, currently
// active (with high-water mark), and completed.
var (
	RunsRegistered = NewCounter("runs.registered")
	RunsActive     = NewGauge("runs.active")
	RunsCompleted  = NewCounter("runs.completed")
)

// completedRingSize bounds the registry's completed-run history; older
// entries fall off (the journal on disk keeps the full record).
const completedRingSize = 64

// Registry tracks the process's runs for the /debug/runs dashboard:
// active runs (with their live Progress and span tree) and a bounded
// ring of completed ones (their manifests). A binary Begins a run
// before executing it and Completes it with the manifest it journals;
// the long-running daemon of ROADMAP's simulation-as-a-service item
// gets its status surface from this type.
type Registry struct {
	mu        sync.Mutex
	nextID    int64
	active    map[int64]*ActiveRun
	completed []CompletedRun // oldest first, capped at completedRingSize
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{active: make(map[int64]*ActiveRun)}
}

// DefaultRegistry is the process-wide registry served at /debug/runs by
// DebugMux.
var DefaultRegistry = NewRegistry()

// ActiveRun is one in-flight run. Progress and Span are optional live
// views (nil when the driver doesn't track them); Stats is always
// present — it just stays empty until the driver publishes into it.
type ActiveRun struct {
	reg *Registry
	id  int64

	Name     string
	Digest   string
	Started  time.Time
	Progress *Progress
	Span     *Span
	Stats    *StatsView
}

// statsViewRing bounds the convergence history kept per active run.
const statsViewRing = 32

// sparkRunes are the eight block levels of the convergence sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// StatsView is an active run's live streaming-statistics surface: the
// last interim stats.Report its sink published, plus a bounded history
// of relative CI half-widths that the dashboard renders as a
// convergence sparkline. Safe for concurrent Publish (the run's
// goroutine) and reads (the dashboard handler).
type StatsView struct {
	mu    sync.Mutex
	last  stats.Report
	has   bool
	relHW []float64
}

// Publish records an interim report and mirrors it into the stats.*
// gauges, so a driver's StatsSink needs exactly one call per report.
func (v *StatsView) Publish(r stats.Report) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.last, v.has = r, true
	if r.RelHalfWidth > 0 {
		v.relHW = append(v.relHW, r.RelHalfWidth)
		if len(v.relHW) > statsViewRing {
			v.relHW = v.relHW[len(v.relHW)-statsViewRing:]
		}
	}
	v.mu.Unlock()
	StatsReports.Inc()
	StatsQoMMean.Set(r.Mean)
	StatsQoMHalfWidth.Set(r.HalfWidth)
	StatsQoMRelHalfWidth.Set(r.RelHalfWidth)
}

// Last returns the most recent published report, if any.
func (v *StatsView) Last() (stats.Report, bool) {
	if v == nil {
		return stats.Report{}, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.last, v.has
}

// Sparkline renders the relative-half-width history oldest-to-newest,
// scaled against the window maximum — a converging run reads as bars
// stepping down toward ▁. Empty until a report carries a CI.
func (v *StatsView) Sparkline() string {
	if v == nil {
		return ""
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	max := 0.0
	for _, x := range v.relHW {
		if x > max {
			max = x
		}
	}
	if max <= 0 {
		return ""
	}
	var b strings.Builder
	for _, x := range v.relHW {
		i := int(x / max * float64(len(sparkRunes)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(sparkRunes) {
			i = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// CompletedRun is one finished run: when it finished and its
// manifest.
type CompletedRun struct {
	Finished time.Time
	Manifest *Manifest
}

// Begin registers an in-flight run. prog and span may be nil.
func (r *Registry) Begin(name, digest string, prog *Progress, span *Span) *ActiveRun {
	a := &ActiveRun{
		reg:      r,
		Name:     name,
		Digest:   digest,
		Started:  time.Now(),
		Progress: prog,
		Span:     span,
		Stats:    &StatsView{},
	}
	r.mu.Lock()
	r.nextID++
	a.id = r.nextID
	r.active[a.id] = a
	r.mu.Unlock()
	RunsRegistered.Inc()
	RunsActive.Add(1)
	return a
}

// Complete moves the run from active to the completed ring with its
// manifest. Nil-safe and idempotent (the second call is a no-op), so
// error paths can Complete unconditionally.
func (a *ActiveRun) Complete(m *Manifest) {
	if a == nil {
		return
	}
	r := a.reg
	r.mu.Lock()
	if _, ok := r.active[a.id]; !ok {
		r.mu.Unlock()
		return
	}
	delete(r.active, a.id)
	r.completed = append(r.completed, CompletedRun{Finished: time.Now(), Manifest: m})
	if len(r.completed) > completedRingSize {
		r.completed = r.completed[len(r.completed)-completedRingSize:]
	}
	r.mu.Unlock()
	RunsActive.Add(-1)
	RunsCompleted.Inc()
}

// ActiveRuns returns the in-flight runs in registration order.
func (r *Registry) ActiveRuns() []*ActiveRun {
	r.mu.Lock()
	out := make([]*ActiveRun, 0, len(r.active))
	for _, a := range r.active {
		out = append(out, a)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// CompletedRuns returns the completed ring, most recent first.
func (r *Registry) CompletedRuns() []CompletedRun {
	r.mu.Lock()
	out := make([]CompletedRun, len(r.completed))
	for i, c := range r.completed {
		out[len(r.completed)-1-i] = c
	}
	r.mu.Unlock()
	return out
}
