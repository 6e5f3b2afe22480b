package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source, measured from the start of
// a phase; tests substitute a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type realClock struct{ start time.Time }

func newRealClock() realClock { return realClock{start: time.Now()} }

func (c realClock) now() time.Duration { return time.Since(c.start) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// poissonSchedule returns the send times of Poisson arrivals at rate
// per second over dur: independent users, an open loop.
func poissonSchedule(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// sent is one request of an open-loop phase. Its latency runs from
// due, the scheduled send time, to end, so a stall charges the wait it
// imposes on every later request. slept marks a sender that was idle
// before due: then start−due is the generator's own lateness, while a
// request taken up after its due time waited on busy connections.
type sent struct {
	due, start, end time.Duration
	slept, ok       bool
}

// openLoop sends request k at sched[k] through at most conns concurrent
// senders, in schedule order, and returns when every request has been
// answered.
func openLoop(clk clock, sched []time.Duration, conns int, send func(k int) bool) []sent {
	out := make([]sent, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := sched[k]
				slept := clk.now() < due
				clk.sleepUntil(due)
				start := clk.now()
				ok := send(k)
				out[k] = sent{due: due, start: start, end: clk.now(), slept: slept, ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// lateBy is the generator lateness above which a send counts as late.
const lateBy = time.Millisecond

// phaseStats reduces one open-loop phase of length window.
type phaseStats struct {
	offered, errors int
	lat             latencySummary
	// completedFrac is the share of offered requests answered within
	// the window: below one, the backlog grew.
	completedFrac float64
	// lateFrac is the share of sends the generator itself started more
	// than lateBy after their due time.
	lateFrac float64
}

func reducePhase(rs []sent, window time.Duration) phaseStats {
	st := phaseStats{offered: len(rs)}
	lats := make([]time.Duration, 0, len(rs))
	completed, slept, late := 0, 0, 0
	for _, r := range rs {
		lat := r.end - r.due
		if !r.ok {
			// A failed request misses every latency limit.
			st.errors++
			lat = time.Duration(math.MaxInt64)
		}
		lats = append(lats, lat)
		if r.ok && r.end <= window {
			completed++
		}
		if r.slept {
			slept++
			if r.start-r.due > lateBy {
				late++
			}
		}
	}
	st.lat = summarize(lats)
	if st.offered > 0 {
		st.completedFrac = float64(completed) / float64(st.offered)
	}
	if slept > 0 {
		st.lateFrac = float64(late) / float64(slept)
	}
	return st
}
