// Package fixture exercises the closecheck analyzer: files, trace
// writers and trace files must reach Close on every path, and the
// sticky error of trace.Writer.Close and trace.File.Close must be
// consumed.
package fixture

import (
	"fmt"
	"os"

	"eventcap/internal/obs"
	"eventcap/internal/trace"
)

func happy(p string) error {
	f, err := os.Create(p)
	if err != nil {
		return err // creation failed: nothing to close
	}
	defer f.Close()
	_, err = f.WriteString("x")
	return err
}

func leaky(p string) error {
	f, err := os.Create(p) // want `may not be Closed on every path`
	if err != nil {
		return err
	}
	if _, werr := f.WriteString("x"); werr != nil {
		return werr // leaks f
	}
	return f.Close()
}

func argKeepsOwnership(p string) {
	f, err := os.Create(p) // want `may not be Closed on every path`
	if err != nil {
		return
	}
	fmt.Fprintln(f, "hello") // passing f does not pass the Close duty
}

func deliberate(p string) error {
	f, err := os.Create(p) // closecheck:ok fixture: process-lifetime file, released by the OS at exit
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "pid")
	return nil
}

func genericJustified(p string) {
	f, err := os.Create(p) // lint:justified fixture: the suite-wide marker works for any analyzer
	if err != nil {
		return
	}
	fmt.Fprintln(f, "x")
}

func handoff(p string) (*os.File, error) {
	f, err := os.Create(p)
	if err != nil {
		return nil, err
	}
	return f, nil // escapes: the caller closes
}

func writeTrace(p string) error {
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	w := trace.NewWriter(f)
	werr := w.Close()
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func conditional(p string, enabled bool) error {
	var w *trace.Writer
	if enabled {
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		defer f.Close()
		w = trace.NewWriter(f)
	}
	if w != nil {
		return w.Close() // consumed: returned to the caller
	}
	return nil
}

func deferChecked(p string) (err error) {
	f, cerr := os.Create(p)
	if cerr != nil {
		return cerr
	}
	w := trace.NewWriter(f)
	defer func() {
		if e := w.Close(); e != nil && err == nil {
			err = e
		}
		f.Close() // os.File: bare close is idiomatic
	}()
	w.RunStart(trace.RunInfo{})
	return nil
}

func sloppy(f *os.File) {
	w := trace.NewWriter(f)
	w.Close() // want `Close error discarded`
}

func deferSloppy(f *os.File) {
	w := trace.NewWriter(f)
	defer w.Close() // want `Close error discarded`
}

func explicitDiscard(f *os.File) {
	w := trace.NewWriter(f)
	_ = w.Close() // reviewed, visible discard: quiet
}

func traceFile(p string, run func(*trace.Writer) error) (*obs.TraceInfo, error) {
	tf, err := trace.Create(p)
	if err != nil {
		return nil, err // creation failed: nothing to close
	}
	if err := run(tf.Writer()); err != nil {
		_, _ = tf.Close() // the run error is primary
		return nil, err
	}
	return tf.Close()
}

func traceFileLeak(p string, run func(*trace.Writer) error) error {
	tf, err := trace.Create(p) // want `may not be Closed on every path`
	if err != nil {
		return err
	}
	if err := run(tf.Writer()); err != nil {
		return err // leaks tf and its buffered frames
	}
	_, err = tf.Close()
	return err
}

func traceFileSloppy(p string) {
	tf, err := trace.Create(p)
	if err != nil {
		return
	}
	tf.Close() // want `Close error discarded`
}
