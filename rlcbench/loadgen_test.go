package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a single-sender clock: sleeping jumps to the due time
// plus a fixed oversleep, and each send advances it by the service time.
type fakeClock struct {
	t, oversleep time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t + c.oversleep
	}
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// Latency runs from the scheduled send time, so a slow request charges
// the wait it causes to the requests queued behind it; only an idle
// sender's oversleep counts as generator lateness.
func TestOpenLoopChargesBacklogToLatency(t *testing.T) {
	clk := &fakeClock{}
	sched := []time.Duration{0, ms(1), ms(2), ms(10)}
	service := ms(1.5)
	rs := openLoop(clk, sched, 1, func(k int) bool {
		clk.t += service
		return true
	})
	want := []struct {
		lat   time.Duration
		slept bool
	}{
		{ms(1.5), false}, // due at 0, sent at 0
		{ms(2), false},   // due at 1, sender free at 1.5: backlog
		{ms(2.5), false}, // due at 2, sender free at 3
		{ms(1.5), true},  // due at 10, sender idle since 4.5
	}
	for k, w := range want {
		if got := rs[k].end - rs[k].due; got != w.lat || rs[k].slept != w.slept {
			t.Errorf("request %d: latency %v slept %v, want %v %v", k, got, rs[k].slept, w.lat, w.slept)
		}
	}
	st := reducePhase(rs, ms(12))
	if st.lateFrac != 0 || st.completedFrac != 1 || st.errors != 0 {
		t.Errorf("late %g completed %g errors %d, want 0 1 0", st.lateFrac, st.completedFrac, st.errors)
	}
}

func TestOpenLoopLatenessAndIncompleteBacklog(t *testing.T) {
	clk := &fakeClock{oversleep: ms(2)}
	sched := []time.Duration{ms(1), ms(5), ms(9)}
	rs := openLoop(clk, sched, 1, func(k int) bool {
		clk.t += ms(0.5)
		return k == 0
	})
	for k, r := range rs {
		if !r.slept || r.start-r.due != ms(2) {
			t.Errorf("request %d: slept %v lateness %v, want true 2ms", k, r.slept, r.start-r.due)
		}
	}
	// Requests 1 and 2 fail, so both count against completion and land
	// beyond every latency limit: the median is a failure.
	st := reducePhase(rs, ms(10))
	if st.lateFrac != 1 || st.errors != 2 || math.Abs(st.completedFrac-1.0/3) > 1e-12 {
		t.Errorf("late %g errors %d completed %g, want 1 2 0.333", st.lateFrac, st.errors, st.completedFrac)
	}
	if st.lat.p50 < 1e9 {
		t.Errorf("p50 %g ms, want a failed request's unbounded latency", st.lat.p50)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	sched := poissonSchedule(newRand(7), 1000, 20*time.Second)
	if n := len(sched); n < 19400 || n > 20600 {
		t.Errorf("%d arrivals in 20s at 1000/s", n)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	again := poissonSchedule(newRand(7), 1000, 20*time.Second)
	if len(again) != len(sched) || again[len(again)-1] != sched[len(sched)-1] {
		t.Error("the same seed gave a different schedule")
	}
}
