package trace

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// writeFrames encodes frames through w, one Writer call per frame.
func writeFrames(w *Writer, frames []Frame) {
	for _, f := range frames {
		switch f.Kind {
		case FrameRunStart:
			w.RunStart(f.Run)
		case FrameSlot:
			w.Rec(f.Rec)
		case FrameSpan:
			w.Span(f.Span)
		case FrameRunEnd:
			w.RunEnd(f.End)
		}
	}
}

// decodeAll reads every frame of data, stopping at the first error.
func decodeAll(data []byte) ([]Frame, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var frames []Frame
	for {
		f, err := r.Next()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
}

// sameFrame compares two frames with their floats matched bit for bit,
// so frames carrying NaN payloads still compare equal to themselves.
func sameFrame(a, b Frame) bool {
	floats := [][2]*float64{
		{&a.Run.BatteryCap, &b.Run.BatteryCap},
		{&a.Run.Cost, &b.Run.Cost},
		{&a.Rec.Prob, &b.Rec.Prob},
		{&a.Rec.Battery, &b.Rec.Battery},
		{&a.Rec.Recharge, &b.Rec.Recharge},
		{&a.Span.Delivered, &b.Span.Delivered},
		{&a.Span.Battery, &b.Span.Battery},
	}
	for _, p := range floats {
		if math.Float64bits(*p[0]) != math.Float64bits(*p[1]) {
			return false
		}
		*p[0], *p[1] = 0, 0
	}
	return a == b
}

// fuzzSeedTrace is a Writer-produced trace with every frame kind: a run
// start, decided slot records, a Sensor -1 event marker, a sleep span,
// and the run end.
func fuzzSeedTrace(t testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	writeFrames(w, []Frame{
		{Kind: FrameRunStart, Run: sampleInfo(EngineKernel)},
		{Kind: FrameSlot, Rec: Rec{Slot: 3, Sensor: 0, Engine: EngineKernel,
			Flags: FlagEvent | FlagActive | FlagCaptured, H: 3, F: 3, Prob: 0.75, Battery: 120.5, Recharge: 1}},
		{Kind: FrameSlot, Rec: Rec{Slot: 4, Sensor: -1, Engine: EngineKernel, Flags: FlagEvent, H: 1, F: 1}},
		{Kind: FrameSpan, Span: Span{Start: 5, Len: 40, Events: 2, State: 1, Delivered: 20, Battery: 140.5}},
		{Kind: FrameSlot, Rec: Rec{Slot: 45, Sensor: 0, Engine: EngineKernel,
			Flags: FlagEvent | FlagDenied, H: 2, F: 42, Prob: 1, Battery: 3}},
		{Kind: FrameRunEnd, End: RunEnd{Events: 5, Captures: 1}},
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceDecode feeds arbitrary bytes to every .evtrace consumer. The
// reader, Replay, Stats, QoMReports and Diff must reject corrupt input
// with an error, never a panic; and any frame sequence the reader
// accepts must survive a Writer round trip, decoding back to exactly the
// frames that were written.
func FuzzTraceDecode(f *testing.F) {
	f.Add(fuzzSeedTrace(f))
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := decodeAll(data)
		Replay(bytes.NewReader(data))
		Stats(bytes.NewReader(data))
		QoMReports(bytes.NewReader(data))
		Diff(bytes.NewReader(data), bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		writeFrames(w, frames)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := decodeAll(buf.Bytes())
		if err != nil {
			t.Fatalf("Writer output does not decode: %v", err)
		}
		if len(got) != len(frames) {
			t.Fatalf("wrote %d frames, decoded %d", len(frames), len(got))
		}
		for i := range frames {
			if !sameFrame(got[i], frames[i]) {
				t.Fatalf("frame %d: wrote %+v, decoded %+v", i, frames[i], got[i])
			}
		}
	})
}
