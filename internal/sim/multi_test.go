package sim

import (
	"math"
	"strings"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/trace"
)

// TestMFITraceMatchesPaper reproduces the Section V-A worked example: two
// sensors, round-robin slots, greedy policy π*_FI(2e) = (0, 0, 1, 1, ...),
// with the scripted event sequence V = (0,0,0,1,0,1,0). The expected
// 7-slot schedule is the table in the paper.
func TestMFITraceMatchesPaper(t *testing.T) {
	// Scripted events via a deterministic "distribution" is awkward;
	// instead replay the dynamics by hand with the same engine rules.
	vector := core.Vector{Prefix: []float64{0, 0}, Tail: 1} // (0,0,1,1,...)

	// Manual replay of the engine semantics.
	type row struct {
		slot      int
		sensor    int // 1-based in the paper
		event     bool
		state     int // H_t
		action1OK bool
		action2OK bool
	}
	events := []bool{false, false, false, true, false, true, false}
	lastEvent := 0
	var got []row
	for slot := 1; slot <= 7; slot++ {
		sensor := (slot-1)%2 + 1
		h := slot - lastEvent
		active := vector.At(h) == 1
		r := row{slot: slot, sensor: sensor, event: events[slot-1], state: h}
		if sensor == 1 {
			r.action1OK = active
		} else {
			r.action2OK = active
		}
		got = append(got, r)
		if events[slot-1] {
			lastEvent = slot
		}
	}

	// The paper's table: states h1,h2,h3,h4,h1,h2,h1; sensor 1 acts a1 in
	// slot 3 only; sensor 2 acts a1 in slot 4 only.
	wantStates := []int{1, 2, 3, 4, 1, 2, 1}
	wantActive1 := map[int]bool{3: true}
	wantActive2 := map[int]bool{4: true}
	for i, r := range got {
		if r.state != wantStates[i] {
			t.Errorf("slot %d: state h%d, want h%d", r.slot, r.state, wantStates[i])
		}
		if r.action1OK != wantActive1[r.slot] {
			t.Errorf("slot %d: sensor 1 active=%v, want %v", r.slot, r.action1OK, wantActive1[r.slot])
		}
		if r.action2OK != wantActive2[r.slot] {
			t.Errorf("slot %d: sensor 2 active=%v, want %v", r.slot, r.action2OK, wantActive2[r.slot])
		}
	}
}

// TestRoundRobinOnlyInChargeActs verifies the M-FI discipline: a sensor
// never activates outside its assigned slots — every active trace
// record comes from sensor (t−1) mod N.
func TestRoundRobinOnlyInChargeActs(t *testing.T) {
	d := mustWeibull(t, 20, 3)
	p := core.DefaultParams()
	const n = 3
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: constantFactory(t, 1),
		NewPolicy:   func(int) Policy { return Aggressive{} },
		N:           n,
		Mode:        ModeRoundRobin,
		BatteryCap:  100,
		Slots:       5000,
		Seed:        3,
	}
	var active, bad int
	for _, r := range tracedSlots(t, cfg) {
		if r.Flags&trace.FlagActive == 0 {
			continue
		}
		active++
		if int64(r.Sensor) != (r.Slot-1)%n {
			bad++
		}
	}
	if active == 0 {
		t.Fatal("no activations traced; test vacuous")
	}
	if bad != 0 {
		t.Fatalf("%d activations by sensors not in charge", bad)
	}
}

// TestBlocksAssignment verifies the multi-PE block rotation: sensor s is
// in charge of block b iff b ≡ s (mod N). The aggressive policy decides
// in every slot, so each slot carries exactly the in-charge sensor's
// record.
func TestBlocksAssignment(t *testing.T) {
	d := mustWeibull(t, 20, 3)
	cfg := Config{
		Dist:        d,
		Params:      core.DefaultParams(),
		NewRecharge: constantFactory(t, 1),
		NewPolicy:   func(int) Policy { return Aggressive{} },
		N:           2,
		Mode:        ModeBlocks,
		BlockLen:    5,
		BatteryCap:  100,
		Slots:       100,
		Seed:        4,
	}
	recs := tracedSlots(t, cfg)
	if len(recs) != int(cfg.Slots) {
		t.Fatalf("%d slot records, want one per slot (%d)", len(recs), cfg.Slots)
	}
	for i, r := range recs {
		wantCharge := int32(((r.Slot - 1) / 5) % 2)
		if r.Slot != int64(i+1) || r.Sensor != wantCharge {
			t.Errorf("record %d: slot %d sensor %d, want slot %d sensor %d", i, r.Slot, r.Sensor, i+1, wantCharge)
		}
	}
}

// TestMultiSensorImprovesQoM: N=4 coordinated sensors beat a single
// sensor under the same per-sensor recharge (the premise of Section V).
func TestMultiSensorImprovesQoM(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	e := 0.1

	run := func(n int) float64 {
		fi, err := core.GreedyFI(d, float64(n)*e, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Dist:        d,
			Params:      p,
			NewRecharge: bernoulliFactory(t, 0.1, e/0.1),
			NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
			N:           n,
			Mode:        ModeRoundRobin,
			BatteryCap:  1000,
			Slots:       600000,
			Seed:        11,
			Info:        FullInfo,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.QoM
	}
	q1, q4 := run(1), run(4)
	if q4 <= q1+0.05 {
		t.Fatalf("4 sensors (%v) not clearly better than 1 (%v)", q4, q1)
	}
}

// TestMPISharedRenewal: under partial information with round robin, a
// capture by any sensor renews the shared f-state (the broadcast of
// Section V-B). We verify by checking that the traced F state is 1 on
// the slot after every captured slot, whichever sensor decides it.
func TestMPISharedRenewal(t *testing.T) {
	d := mustWeibull(t, 20, 2)
	p := core.DefaultParams()
	pi, err := core.OptimizeClustering(d, 1.0, p, core.ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: constantFactory(t, 0.5),
		NewPolicy:   func(int) Policy { return &VectorPI{Vector: pi.Vector} },
		N:           2,
		Mode:        ModeRoundRobin,
		BatteryCap:  500,
		Slots:       20000,
		Seed:        5,
		Info:        PartialInfo,
	}
	recs := tracedSlots(t, cfg)
	checked := 0
	for i := 1; i < len(recs); i++ {
		prev, r := recs[i-1], recs[i]
		if prev.Flags&trace.FlagCaptured == 0 {
			continue
		}
		if r.Slot != prev.Slot+1 {
			t.Fatalf("slot %d: no record for the slot after a capture (next record at %d)", prev.Slot, r.Slot)
		}
		if r.F != 1 {
			t.Errorf("slot %d: F=%d after a capture, want 1", r.Slot, r.F)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no captures occurred; test vacuous")
	}
}

// TestLoadBalanceRoundRobin: with a Weibull workload, M-FI spreads
// activations roughly evenly across sensors (Section V-A's observation
// for "natural" distributions).
func TestLoadBalanceRoundRobin(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.6, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: bernoulliFactory(t, 0.1, 3),
		NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
		N:           3,
		Mode:        ModeRoundRobin,
		BatteryCap:  1000,
		Slots:       600000,
		Seed:        12,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if imb := res.LoadImbalance(); imb > 0.25 {
		t.Fatalf("load imbalance %v too high for Weibull round robin", imb)
	}
}

// TestLoadImbalanceAdversarial reproduces the paper's pathological
// example: β1 = 0, β2 = 1 (deterministic inter-arrival of 2) with two
// sensors makes one sensor do all the work under naive round robin.
func TestLoadImbalanceAdversarial(t *testing.T) {
	det, err := dist.NewDeterministic(2)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	fi, err := core.GreedyFI(det, 2*1.0, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dist:        det,
		Params:      p,
		NewRecharge: constantFactory(t, 1.0),
		NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
		N:           2,
		Mode:        ModeRoundRobin,
		BatteryCap:  1000,
		Slots:       100000,
		Seed:        13,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if imb := res.LoadImbalance(); imb < 1.5 {
		t.Fatalf("expected severe imbalance (one sensor idle), got %v", imb)
	}
}

func TestLoadImbalanceEmpty(t *testing.T) {
	r := &Result{Sensors: make([]SensorStats, 3)}
	if r.LoadImbalance() != 0 {
		t.Fatal("no activations should give zero imbalance")
	}
	r2 := &Result{}
	if r2.LoadImbalance() != 0 {
		t.Fatal("no sensors should give zero imbalance")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{&VectorFI{}, "vector-fi"},
		{&VectorFI{Label: "greedy"}, "greedy"},
		{&VectorPI{}, "vector-pi"},
		{Aggressive{}, "aggressive"},
		{&Periodic{Theta1: 3, Theta2: 10}, "periodic(3/10)"},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
	e := NewEBCW(&core.EBCWPolicy{PYes: 1, PNo: 0.25})
	if !strings.HasPrefix(e.Name(), "ebcw(") {
		t.Errorf("EBCW name %q", e.Name())
	}
}

func BenchmarkRunSingleSensor(b *testing.B) {
	d := mustWeibull(b, 40, 3)
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.5, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: bernoulliFactory(b, 0.5, 1),
		NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
		BatteryCap:  1000,
		Slots:       100000,
		Seed:        1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQoMWithinBounds(t *testing.T) {
	res, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.QoM < 0 || res.QoM > 1 {
		t.Fatalf("QoM %v out of [0,1]", res.QoM)
	}
	if math.IsNaN(res.QoM) {
		t.Fatal("QoM is NaN")
	}
}

// TestFaultInjection: a sensor that dies stops activating; under round
// robin its slots go uncovered, reducing QoM versus the healthy fleet.
func TestFaultInjection(t *testing.T) {
	d := mustWeibull(t, 20, 3)
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 3*0.3, p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(failAt map[int]int64) *Result {
		res, err := Run(Config{
			Dist:        d,
			Params:      p,
			NewRecharge: constantFactory(t, 0.3),
			NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
			N:           3,
			Mode:        ModeRoundRobin,
			BatteryCap:  500,
			Slots:       300000,
			Seed:        21,
			Info:        FullInfo,
			FailAt:      failAt,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(nil)
	faulty := run(map[int]int64{0: 1000})
	if faulty.QoM >= healthy.QoM-0.02 {
		t.Fatalf("failure did not hurt: healthy %v, faulty %v", healthy.QoM, faulty.QoM)
	}
	if faulty.Sensors[0].Activations >= healthy.Sensors[0].Activations {
		t.Fatal("dead sensor kept activating")
	}
	// A dead sensor must not activate after its failure slot.
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: constantFactory(t, 0.3),
		NewPolicy:   func(int) Policy { return Aggressive{} },
		N:           2,
		Mode:        ModeRoundRobin,
		BatteryCap:  500,
		Slots:       5000,
		Seed:        22,
		FailAt:      map[int]int64{1: 100},
	}
	var pre, post int
	for _, r := range tracedSlots(t, cfg) {
		if r.Sensor != 1 || r.Flags&trace.FlagActive == 0 {
			continue
		}
		if r.Slot < 100 {
			pre++
		} else {
			post++
		}
	}
	if pre == 0 {
		t.Fatal("sensor 1 never activated before failing; test vacuous")
	}
	if post != 0 {
		t.Fatalf("dead sensor activated %d times after failing", post)
	}
}
