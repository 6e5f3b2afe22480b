package clocktree

// The checkpoint state decoder is an untrusted-input boundary: the
// ckpt envelope authenticates bytes, not their shape.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// codecWalker is a three-level walker with statistics, samples, memo
// entries and stack frames all populated.
func codecWalker() *walker {
	w := &walker{levels: 3, opts: SimOptions{SampleCap: 4}}
	w.stats = ArrivalStats{
		Leaves: 7, Min: 1e-12, Max: 9e-12, MinLeaf: 2, MaxLeaf: 5,
		Sum: 3.5e-11, SumSq: 4e-22,
		Sample:          []float64{1e-12, 2e-12},
		StagesSimulated: 3, StagesDeduped: 9,
	}
	w.stats.Hist[histBucket(1e-12)] = 7
	w.memo = map[stageSig][4]float64{
		{level: 1, scale: nominalScale, loads: nominalLoads}:                    {1, 2, 3, 4},
		{level: 2, scale: [3]float64{1.1, 1, 1}, loads: [4]float64{1, 2, 1, 1}}: {5, 6, 7, 8},
	}
	w.stack = []frame{
		{level: 0, next: 2, id: 0, base: 0, arrival: 1e-12, delays: [4]float64{1, 2, 3, 4}},
		{level: 1, next: 0, id: 2, base: 16, arrival: 2e-12, delays: [4]float64{5, 6, 7, 8}},
	}
	return w
}

// hugeMemoPayload is an 852-byte state: the version, empty statistics,
// no samples, and a memo count of 1<<22 with no entry behind it.
func hugeMemoPayload() []byte {
	empty := (&walker{levels: 3}).encodeState()
	p := empty[:len(empty)-4] // drop the stack count
	binary.LittleEndian.PutUint32(p[len(p)-4:], 1<<22)
	return p
}

// A count the remaining bytes cannot hold is refused before anything
// is allocated for it: 852 bytes claiming 1<<22 memo entries used to
// allocate a map of that size first.
func TestDecodeStateRefusesCountBeyondPayload(t *testing.T) {
	payload := hugeMemoPayload()
	if len(payload) != 852 {
		t.Fatalf("payload is %d bytes, want 852", len(payload))
	}
	w := &walker{levels: 3}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.decodeState(payload)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "memo count 4194304 out of range") {
		t.Fatalf("got %v, want the memo count refused", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decode allocated %d bytes before refusing the payload, want under 1 MB", alloc)
	}
}

// canonicalState is the walker's encoded state with its memo entries
// sorted, since encodeState writes them in map order.
func canonicalState(w *walker) []byte {
	memo := w.memo
	w.memo = nil
	out := w.encodeState()
	w.memo = memo
	var entries []string
	for sig, d := range memo {
		e := &stateWriter{}
		e.u32(uint32(sig.level))
		for _, v := range sig.scale {
			e.f64(v)
		}
		for _, v := range sig.loads {
			e.f64(v)
		}
		for _, v := range d {
			e.f64(v)
		}
		entries = append(entries, string(e.buf))
	}
	sort.Strings(entries)
	for _, e := range entries {
		out = append(out, e...)
	}
	return out
}

// FuzzDecodeState: decoding arbitrary bytes never panics, and a payload
// that decodes re-encodes to one that decodes to the same state.
func FuzzDecodeState(f *testing.F) {
	full := codecWalker().encodeState()
	f.Add(full)
	f.Add(hugeMemoPayload())
	for _, n := range []int{0, 4, 851, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		w := &walker{levels: 3, opts: SimOptions{SampleCap: 4}}
		if err := w.decodeState(payload); err != nil {
			return
		}
		again := &walker{levels: 3, opts: SimOptions{SampleCap: 4}}
		if err := again.decodeState(w.encodeState()); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(canonicalState(again), canonicalState(w)) {
			t.Fatal("re-encoded state decodes to a different state")
		}
	})
}
