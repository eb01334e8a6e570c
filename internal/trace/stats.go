package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// RegionStat aggregates the slots decided at one activation-probability
// level. Clustering policies are piecewise-constant in the hazard
// state, so grouping by probability recovers the policy's regions and
// shows where the captures and the misses live.
type RegionStat struct {
	Prob     float64 `json:"prob"`
	Slots    int64   `json:"slots"`
	Active   int64   `json:"active"`
	Denied   int64   `json:"denied"`
	Events   int64   `json:"events"`
	Captures int64   `json:"captures"`
	Misses   int64   `json:"misses"`
	// MinH/MaxH bound the hazard states seen in the region (-1 when the
	// trace carries no full-information state).
	MinH int32 `json:"min_h"`
	MaxH int32 `json:"max_h"`
}

// OutageStats summarizes energy-outage episodes: maximal runs of
// consecutive recorded slots (per sensor) whose decision-time battery
// was below the activation cost.
type OutageStats struct {
	Episodes int64   `json:"episodes"`
	Slots    int64   `json:"slots"`
	MeanLen  float64 `json:"mean_len"`
	MaxLen   int64   `json:"max_len"`
}

// StatsReport is the stats subcommand's aggregation of one trace.
type StatsReport struct {
	Runs       int64        `json:"runs"`
	Records    int64        `json:"records"`
	Spans      int64        `json:"spans"`
	SpanSlots  int64        `json:"span_slots"`
	SpanEvents int64        `json:"span_events"`
	Regions    []RegionStat `json:"regions"`
	Outage     OutageStats  `json:"outage"`
}

// outageRun tracks one sensor's in-progress outage episode.
type outageRun struct {
	length int64
}

// Stats aggregates a trace into a per-region activation/miss breakdown
// and outage-episode lengths.
func Stats(r io.Reader) (*StatsReport, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rep := &StatsReport{}
	regions := make(map[uint64]*RegionStat)
	var cost float64
	open := make(map[int32]*outageRun) // per-sensor in-progress episodes
	closeEpisode := func(o *outageRun) {
		if o.length > 0 {
			rep.Outage.Episodes++
			rep.Outage.Slots += o.length
			if o.length > rep.Outage.MaxLen {
				rep.Outage.MaxLen = o.length
			}
			o.length = 0
		}
	}
	closeAll := func() {
		// nondeterm:ok order-independent accumulation into scalar totals
		for _, o := range open {
			closeEpisode(o)
		}
		clear(open)
	}
	for {
		f, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch f.Kind {
		case FrameRunStart:
			rep.Runs++
			cost = f.Run.Cost
			closeAll()
		case FrameSlot:
			rep.Records++
			rec := f.Rec
			if rec.Sensor < 0 {
				// Slot markers carry aggregate event outcomes, not a
				// sensor decision; count their event in the zero-prob
				// region so events stay complete.
				rec.Prob = 0
			}
			key := math.Float64bits(rec.Prob)
			rs := regions[key]
			if rs == nil {
				rs = &RegionStat{Prob: rec.Prob, MinH: math.MaxInt32, MaxH: -1}
				regions[key] = rs
			}
			rs.Slots++
			if rec.Flags&FlagActive != 0 {
				rs.Active++
			}
			if rec.Flags&FlagDenied != 0 {
				rs.Denied++
			}
			if rec.Flags&FlagEvent != 0 {
				rs.Events++
				if rec.Flags&FlagCaptured != 0 {
					rs.Captures++
				} else {
					rs.Misses++
				}
			}
			if rec.Sensor >= 0 && rec.H >= 0 {
				if rec.H < rs.MinH {
					rs.MinH = rec.H
				}
				if rec.H > rs.MaxH {
					rs.MaxH = rec.H
				}
			}
			if rec.Sensor >= 0 {
				o := open[rec.Sensor]
				if o == nil {
					o = &outageRun{}
					open[rec.Sensor] = o
				}
				if rec.Battery < cost {
					o.length++
				} else {
					closeEpisode(o)
				}
			}
		case FrameSpan:
			rep.Spans++
			rep.SpanSlots += f.Span.Len
			rep.SpanEvents += f.Span.Events
			// A sleep run breaks slot adjacency: whatever outage was
			// accumulating ended (the sensor was not even deciding).
			closeAll()
		case FrameRunEnd:
			closeAll()
		}
	}
	closeAll()
	if rep.Outage.Episodes > 0 {
		rep.Outage.MeanLen = float64(rep.Outage.Slots) / float64(rep.Outage.Episodes)
	}
	// nondeterm:ok collect-then-sort: map order never reaches the output
	for _, rs := range regions {
		if rs.MinH == math.MaxInt32 {
			rs.MinH = -1
		}
		rep.Regions = append(rep.Regions, *rs)
	}
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].Prob < rep.Regions[j].Prob })
	return rep, nil
}

// Divergence locates the first difference between two traces.
type Divergence struct {
	// Frame is the 0-based index of the first differing frame.
	Frame int64
	// Run is the 0-based run index the divergence falls in.
	Run int64
	// Slot anchors the divergence on the timeline (0 for run-boundary
	// frames).
	Slot int64
	// A and B describe the differing frames ("<end of trace>" when one
	// stream is a prefix of the other).
	A, B string
}

// Diff compares two traces frame by frame and returns the first
// divergence, or nil when the streams are identical. Engine tags are
// ignored so a reference trace and a kernel trace of the same run can
// be compared up to their structural difference (the kernel's sleep
// spans replace per-slot records, which Diff reports as the divergence
// slot — exactly where the engines' executions stop being comparable).
func Diff(a, b io.Reader) (*Divergence, error) {
	ra, err := NewReader(a)
	if err != nil {
		return nil, fmt.Errorf("trace a: %w", err)
	}
	rb, err := NewReader(b)
	if err != nil {
		return nil, fmt.Errorf("trace b: %w", err)
	}
	var frame, run int64
	for {
		fa, errA := ra.Next()
		fb, errB := rb.Next()
		endA, endB := errA == io.EOF, errB == io.EOF
		if errA != nil && !endA {
			return nil, fmt.Errorf("trace a: %w", errA)
		}
		if errB != nil && !endB {
			return nil, fmt.Errorf("trace b: %w", errB)
		}
		if endA && endB {
			return nil, nil
		}
		if endA || endB {
			d := &Divergence{Frame: frame, Run: run, A: "<end of trace>", B: "<end of trace>"}
			if !endA {
				d.A = describeFrame(fa)
				d.Slot = fa.Slot()
			}
			if !endB {
				d.B = describeFrame(fb)
				d.Slot = fb.Slot()
			}
			return d, nil
		}
		if normalizeEngine(fa) != normalizeEngine(fb) {
			return &Divergence{
				Frame: frame, Run: run, Slot: fa.Slot(),
				A: describeFrame(fa), B: describeFrame(fb),
			}, nil
		}
		if fa.Kind == FrameRunEnd {
			run++
		}
		frame++
	}
}

// normalizeEngine blanks the engine tags so Diff compares behavior, not
// which engine produced it.
func normalizeEngine(f Frame) Frame {
	f.Run.Engine = 0
	f.Rec.Engine = 0
	return f
}

// describeFrame renders a frame for divergence reports.
func describeFrame(f Frame) string {
	switch f.Kind {
	case FrameRunStart:
		return fmt.Sprintf("run-start{engine=%s sensors=%d seed=%d slots=%d policy=%s}",
			EngineName(f.Run.Engine), f.Run.Sensors, f.Run.Seed, f.Run.Slots, f.Run.Policy)
	case FrameSlot:
		r := f.Rec
		return fmt.Sprintf("slot{t=%d sensor=%d h=%d f=%d prob=%g battery=%g recharge=%g flags=%s}",
			r.Slot, r.Sensor, r.H, r.F, r.Prob, r.Battery, r.Recharge, FlagString(r.Flags))
	case FrameSpan:
		s := f.Span
		return fmt.Sprintf("span{start=%d len=%d events=%d delivered=%g battery=%g}",
			s.Start, s.Len, s.Events, s.Delivered, s.Battery)
	case FrameRunEnd:
		return fmt.Sprintf("run-end{events=%d captures=%d}", f.End.Events, f.End.Captures)
	}
	return fmt.Sprintf("unknown{kind=0x%02x}", f.Kind)
}

// FlagString renders a flag byte as "event|active|captured" etc., or
// "-" when no flag is set.
func FlagString(flags uint8) string {
	if flags == 0 {
		return "-"
	}
	names := []struct {
		bit  uint8
		name string
	}{
		{FlagEvent, "event"},
		{FlagActive, "active"},
		{FlagDenied, "denied"},
		{FlagCaptured, "captured"},
	}
	out := ""
	for _, n := range names {
		if flags&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}
