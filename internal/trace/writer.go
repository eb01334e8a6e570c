package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
)

// The binary trace format. A file is the magic string followed by a
// frame stream; every frame is a kind byte and a kind-specific body.
// Integers are varints (signed values zigzag-encoded), floats are
// IEEE-754 bits little-endian, strings are a uvarint length plus bytes.
// Slot numbers are delta-encoded against the previous frame's last slot
// within each run, so a dense single-sensor trace costs ~2 bytes of
// slot bookkeeping per record.
const Magic = "EVCTRC1\n"

// Frame kinds.
const (
	FrameRunStart byte = 0x01
	FrameSlot     byte = 0x02
	FrameSpan     byte = 0x03
	FrameRunEnd   byte = 0x04
)

// teeCount hashes and counts everything written through it.
type teeCount struct {
	dst io.Writer
	h   hash.Hash
	n   int64
}

func (t *teeCount) Write(p []byte) (int, error) {
	t.h.Write(p)
	t.n += int64(len(p))
	return t.dst.Write(p)
}

// Writer streams trace frames into dst. Write errors are sticky and
// surface at Close — the simulation hot path records without checking
// errors per slot, and a run never fails mid-flight on trace I/O.
type Writer struct {
	tc     *teeCount
	bw     *bufio.Writer
	buf    []byte
	last   int64 // previous frame's last slot, for delta encoding
	err    error
	counts Counts
	closed bool
}

// NewWriter starts a trace stream on dst by writing the magic header.
func NewWriter(dst io.Writer) *Writer {
	tc := &teeCount{dst: dst, h: sha256.New()}
	w := &Writer{tc: tc, bw: bufio.NewWriterSize(tc, 1<<15), buf: make([]byte, 0, 128)}
	_, err := w.bw.WriteString(Magic)
	w.setErr(err)
	return w
}

func (w *Writer) setErr(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

func (w *Writer) flushFrame() {
	if w.err != nil {
		w.buf = w.buf[:0]
		return
	}
	_, err := w.bw.Write(w.buf)
	w.setErr(err)
	w.buf = w.buf[:0]
}

func (w *Writer) appendUvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) appendVarint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *Writer) appendFloat(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}
func (w *Writer) appendString(s string) { w.appendUvarint(uint64(len(s))); w.buf = append(w.buf, s...) }

// RunStart opens a traced run and resets the slot delta base.
func (w *Writer) RunStart(info RunInfo) {
	w.buf = append(w.buf, FrameRunStart, info.Engine)
	w.appendUvarint(uint64(info.Sensors))
	w.appendUvarint(info.Seed)
	w.appendUvarint(uint64(info.Slots))
	w.appendFloat(info.BatteryCap)
	w.appendFloat(info.Cost)
	w.appendString(info.Policy)
	w.appendString(info.Dist)
	w.appendString(info.Recharge)
	w.flushFrame()
	w.last = 0
	w.counts.Runs++
}

// Rec appends one slot record.
func (w *Writer) Rec(r Rec) {
	w.buf = append(w.buf, FrameSlot)
	w.appendVarint(r.Slot - w.last)
	w.appendVarint(int64(r.Sensor))
	w.buf = append(w.buf, r.Engine, r.Flags)
	w.appendVarint(int64(r.H))
	w.appendVarint(int64(r.F))
	w.appendFloat(r.Prob)
	w.appendFloat(r.Battery)
	w.appendFloat(r.Recharge)
	w.flushFrame()
	w.last = r.Slot
	w.counts.Records++
}

// Span appends one fast-forwarded sleep run.
func (w *Writer) Span(sp Span) {
	w.buf = append(w.buf, FrameSpan)
	w.appendVarint(sp.Start - w.last)
	w.appendUvarint(uint64(sp.Len))
	w.appendUvarint(uint64(sp.Events))
	w.buf = append(w.buf, sp.State)
	w.appendFloat(sp.Delivered)
	w.appendFloat(sp.Battery)
	w.flushFrame()
	w.last = sp.Start + sp.Len - 1
	w.counts.Spans++
}

// RunEnd closes the current run with the engine's own totals.
func (w *Writer) RunEnd(e RunEnd) {
	w.buf = append(w.buf, FrameRunEnd)
	w.appendUvarint(uint64(e.Events))
	w.appendUvarint(uint64(e.Captures))
	w.flushFrame()
}

// Close flushes the stream, folds the writer's totals into the
// process-wide trace counters, and returns the first error the stream
// hit (if any). It does not close dst.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.setErr(w.bw.Flush())
	w.counts.Bytes = w.tc.n
	tracedRuns.Add(w.counts.Runs)
	tracedRecords.Add(w.counts.Records)
	tracedSpans.Add(w.counts.Spans)
	tracedBytes.Add(w.counts.Bytes)
	if w.err != nil {
		return fmt.Errorf("trace: writing stream: %w", w.err)
	}
	return nil
}

// SHA256 returns the hex digest of every byte written so far (after
// Close, the digest of the whole file).
func (w *Writer) SHA256() string {
	return hex.EncodeToString(w.tc.h.Sum(nil))
}

// Counts reports what the writer emitted (Bytes is set by Close).
func (w *Writer) Counts() Counts { return w.counts }
