package sim

import (
	"bytes"
	"reflect"
	"testing"

	"eventcap/internal/trace"
)

// TestTraceQoMReportsMatchProbe: tracetool's offline rebuild
// (trace.QoMReports) replays the exact observation stream the live
// probe saw — per-slot event indicators in slot order, sleep-span
// misses in bulk — so the batch-means report recovered from a trace
// matches Result.Stats bit for bit, on both engines. This is what
// makes `tracetool stats -manifest` an exact check rather than a
// tolerance test.
func TestTraceQoMReportsMatchProbe(t *testing.T) {
	for _, engine := range []Engine{EngineReference, EngineKernel} {
		cfg := kernelBaseConfig(t, kernelCases(t)[0], constantFactory(t, 0.5), 7, 2)
		cfg.Engine = engine
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cfg.Tracer = w

		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%v: closing trace: %v", engine, err)
		}
		reports, err := trace.QoMReports(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if len(reports) != 1 {
			t.Fatalf("%v: %d runs in trace, want 1", engine, len(reports))
		}
		if want := *res.Stats; !reflect.DeepEqual(reports[0], want) {
			t.Errorf("%v: trace rebuild diverges from probe:\ntrace %+v\nprobe %+v", engine, reports[0], want)
		}
	}
}
