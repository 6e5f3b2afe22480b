// Checkpoint payload codec: the walker's resumable state — running
// statistics, stage memo, depth-first frontier — as a little-endian
// binary blob. The ckpt record envelope already authenticates the
// bytes (SHA-256) and scopes them to a job key; this codec only has
// to be unambiguous and defensive about *shape* (a decode of a
// well-checksummed but foreign or future-format payload must fail
// cleanly, never panic or allocate absurdly).

package clocktree

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	// stateVersion is bumped whenever the walker state layout changes;
	// a mismatch degrades to a cold start (counted as ckpt.corrupt).
	stateVersion = 1
	// Decode bounds: far above anything a real walk produces (the memo
	// holds one entry per *distinct* stage signature, the stack one
	// frame per level) but small enough that a corrupt length cannot
	// ask for gigabytes.
	maxMemoEntries   = 1 << 22
	maxStackFrames   = 4096
	maxSampleEntries = 1 << 22
	// Encoded entry sizes: a sample is one f64; a memo entry is its
	// level (u32), scale, loads and delays (11 f64); a stack frame is
	// its level and next child (2 u32), id and base (2 i64), arrival
	// and delays (5 f64).
	sampleBytes = 8
	memoBytes   = 4 + 11*8
	frameBytes  = 2*4 + 2*8 + 5*8
)

type stateWriter struct{ buf []byte }

func (w *stateWriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}
func (w *stateWriter) i64(v int64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}
func (w *stateWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

type stateReader struct {
	buf []byte
	off int
	err error
}

func (r *stateReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("clocktree: checkpoint state truncated at offset %d", r.off)
		return false
	}
	return true
}
func (r *stateReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *stateReader) i64() int64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return int64(v)
}
func (r *stateReader) f64() float64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// count reads the entry count of a section whose entries take size
// bytes each, and refuses one above max or one that the bytes left
// cannot hold — before anything is allocated for the entries.
func (r *stateReader) count(what string, size int, max uint32) uint32 {
	n := r.u32()
	if left := len(r.buf) - r.off; r.err == nil && (n > max || int(n) > left/size) {
		r.err = fmt.Errorf("clocktree: checkpoint %s %d out of range (%d bytes left)", what, n, left)
	}
	return n
}

// encodeState serialises the walker's resumable state. ResumedSeq and
// the per-process observed counter are deliberately not persisted:
// both describe the *run*, not the job.
func (w *walker) encodeState() []byte {
	sw := &stateWriter{buf: make([]byte, 0,
		4+ // version
			(9+histBuckets)*8+ // stats
			4+len(w.stats.Sample)*sampleBytes+
			4+len(w.memo)*memoBytes+
			4+len(w.stack)*frameBytes)}
	sw.u32(stateVersion)
	s := &w.stats
	sw.i64(s.Leaves)
	sw.f64(s.Min)
	sw.f64(s.Max)
	sw.i64(s.MinLeaf)
	sw.i64(s.MaxLeaf)
	sw.f64(s.Sum)
	sw.f64(s.SumSq)
	sw.i64(s.StagesSimulated)
	sw.i64(s.StagesDeduped)
	for _, n := range s.Hist {
		sw.i64(n)
	}
	sw.u32(uint32(len(s.Sample)))
	for _, v := range s.Sample {
		sw.f64(v)
	}
	sw.u32(uint32(len(w.memo)))
	for sig, d := range w.memo {
		sw.u32(uint32(sig.level))
		for _, v := range sig.scale {
			sw.f64(v)
		}
		for _, v := range sig.loads {
			sw.f64(v)
		}
		for _, v := range d {
			sw.f64(v)
		}
	}
	sw.u32(uint32(len(w.stack)))
	for _, f := range w.stack {
		sw.u32(uint32(f.level))
		sw.u32(uint32(f.next))
		sw.i64(f.id)
		sw.i64(f.base)
		sw.f64(f.arrival)
		for _, v := range f.delays {
			sw.f64(v)
		}
	}
	return sw.buf
}

// decodeState restores the walker from an encodeState payload,
// validating every count and index against the walker's own tree
// shape. Any failure leaves the walker unusable — the caller resets
// it and starts cold.
func (w *walker) decodeState(payload []byte) error {
	r := &stateReader{buf: payload}
	if v := r.u32(); r.err == nil && v != stateVersion {
		return fmt.Errorf("clocktree: checkpoint state version %d, want %d", v, stateVersion)
	}
	s := &w.stats
	s.Leaves = r.i64()
	s.Min = r.f64()
	s.Max = r.f64()
	s.MinLeaf = r.i64()
	s.MaxLeaf = r.i64()
	s.Sum = r.f64()
	s.SumSq = r.f64()
	s.StagesSimulated = r.i64()
	s.StagesDeduped = r.i64()
	for i := range s.Hist {
		s.Hist[i] = r.i64()
	}
	nSample := r.count("sample count", sampleBytes, maxSampleEntries)
	if r.err == nil && w.opts.SampleCap >= 0 && int(nSample) > w.opts.SampleCap {
		return fmt.Errorf("clocktree: checkpoint holds %d samples, options cap %d", nSample, w.opts.SampleCap)
	}
	if nSample > 0 && r.err == nil {
		s.Sample = make([]float64, nSample)
		for i := range s.Sample {
			s.Sample[i] = r.f64()
		}
	}
	nMemo := r.count("memo count", memoBytes, maxMemoEntries)
	if nMemo > 0 && r.err == nil && w.memo == nil {
		w.memo = make(map[stageSig][4]float64, nMemo)
	}
	for i := uint32(0); i < nMemo && r.err == nil; i++ {
		var sig stageSig
		sig.level = int32(r.u32())
		for j := range sig.scale {
			sig.scale[j] = r.f64()
		}
		for j := range sig.loads {
			sig.loads[j] = r.f64()
		}
		var d [4]float64
		for j := range d {
			d[j] = r.f64()
		}
		if r.err != nil {
			break
		}
		if sig.level < 0 || int(sig.level) >= w.levels {
			return fmt.Errorf("clocktree: checkpoint memo entry at level %d of a %d-level tree", sig.level, w.levels)
		}
		if w.memo != nil {
			w.memo[sig] = d
		}
	}
	nStack := r.count("stack depth", frameBytes, maxStackFrames)
	if nStack > 0 && r.err == nil {
		w.stack = make([]frame, 0, nStack)
	}
	for i := uint32(0); i < nStack && r.err == nil; i++ {
		var f frame
		f.level = int32(r.u32())
		f.next = int32(r.u32())
		f.id = r.i64()
		f.base = r.i64()
		f.arrival = r.f64()
		for j := range f.delays {
			f.delays[j] = r.f64()
		}
		if r.err != nil {
			break
		}
		if f.level < 0 || int(f.level) >= w.levels {
			return fmt.Errorf("clocktree: checkpoint frame at level %d of a %d-level tree", f.level, w.levels)
		}
		if f.next < 0 || f.next > 4 {
			return fmt.Errorf("clocktree: checkpoint frame with next = %d", f.next)
		}
		if f.id < 0 || f.base < 0 {
			return fmt.Errorf("clocktree: checkpoint frame with negative id/base (%d, %d)", f.id, f.base)
		}
		w.stack = append(w.stack, f)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("clocktree: checkpoint state has %d trailing bytes", len(r.buf)-r.off)
	}
	if s.Leaves < 0 {
		return fmt.Errorf("clocktree: checkpoint leaf count %d negative", s.Leaves)
	}
	return nil
}
