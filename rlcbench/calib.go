package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. The benchmark runs on hosts whose cores are
// shared with other tenants: a fixed CPU loop runs up to 1.8× slower
// while a neighbour is busy, in phases lasting seconds to minutes, and
// CPU time stretches with wall time. Raw timings then scatter by 20–50 %
// from run to run, far more than any change worth detecting. So every
// timing is taken between two probes of a fixed reference kernel and
// scaled by refKernel over the probes' mean: it reads in seconds at the
// reference host's speed, and the drift cancels. The raw wall-clock
// medians are printed beside the calibrated ones.

// refKernel is kernel's time on an idle 2-vCPU Intel Xeon host (the
// ledger's); calibrated timings equal wall time on such a host.
const refKernel = 35 * time.Microsecond

// kernelSink keeps the kernel's result live so the compiler cannot drop
// the loop; probes run on several goroutines, hence the atomic.
var kernelSink atomic.Uint64

// kernel is fixed floating-point work on two 16 KiB, L1-resident arrays:
// 61,440 independent multiply-add pairs, four per iteration. It is bound
// by execution throughput, as the program's own loops are, so a busy
// sibling hyperthread slows it as it slows them; a kernel bound by a
// dependency chain felt about half of that slowdown and left twice the
// spread. It is the benchmark's own code, so no change to the program
// under test changes it.
func kernel() {
	var a, b [2048]float64
	for i := range b {
		b[i] = float64(i)
	}
	for r := 0; r < 30; r++ {
		for i := 0; i < len(a); i += 4 {
			a[i] = a[i]*0.999 + b[i]*0.5
			a[i+1] = a[i+1]*0.999 + b[i+1]*0.5
			a[i+2] = a[i+2]*0.999 + b[i+2]*0.5
			a[i+3] = a[i+3]*0.999 + b[i+3]*0.5
		}
	}
	kernelSink.Store(math.Float64bits(a[7]))
}

// probe times the kernel three times and returns the median.
func probe() time.Duration {
	var ts [3]time.Duration
	for i := range ts {
		t0 := time.Now()
		kernel()
		ts[i] = time.Since(t0)
	}
	sort.Slice(ts[:], func(i, j int) bool { return ts[i] < ts[j] })
	return ts[1]
}

// calibrate scales a wall time measured between probes k0 and k1 to
// the reference host's speed.
func calibrate(wall, k0, k1 time.Duration) time.Duration {
	return time.Duration(float64(wall) * float64(refKernel) / (float64(k0+k1) / 2))
}

// timed runs f between two probes and returns its wall and calibrated
// times.
func timed(f func() error) (wall, cal time.Duration, err error) {
	k0 := probe()
	t0 := time.Now()
	err = f()
	wall = time.Since(t0)
	return wall, calibrate(wall, k0, probe()), err
}

// sampler probes the host's speed on its own goroutine, on the other
// core, for work that cannot stop for a probe: long single-threaded
// operations and open-loop load.
type sampler struct {
	stop, done chan struct{}
	stopOnce   sync.Once
	at         []time.Time
	probe      []time.Duration
}

func startSampler(interval time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				k := probe()
				s.at, s.probe = append(s.at, time.Now()), append(s.probe, k)
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it; call it before factor. It
// may be called more than once.
func (s *sampler) halt() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// factor returns refKernel over the mean probe taken between from and
// to (over every probe when none fell in between): multiply a wall time
// measured over that interval by it to calibrate it. The mean, not the
// median: the host alternates between two speeds, and the mean probe
// tracks the average slowdown where a median snaps to one of them.
func (s *sampler) factor(from, to time.Time) float64 {
	var sum time.Duration
	n := 0
	for i, at := range s.at {
		if !at.Before(from) && !at.After(to) {
			sum += s.probe[i]
			n++
		}
	}
	if n == 0 {
		for _, k := range s.probe {
			sum += k
		}
		n = len(s.probe)
	}
	if n == 0 {
		return 1
	}
	return float64(refKernel) * float64(n) / float64(sum)
}
