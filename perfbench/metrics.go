package main

import (
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between the closest ranks (0 for no values).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailQuantile is the tail percentile a latency metric can support
// with n samples: the highest one with at least ten samples beyond it,
// capped at p99 (so p99 from 1000 samples on) and never below the
// median.
func tailQuantile(n int) float64 {
	return min(0.99, max(0.5, 1-10/float64(max(n, 1))))
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler averages the Go runtime's resident memory — everything it
// has mapped minus what it has returned to the system — over samples
// taken every memSampleEvery by its own goroutine until stop. A time
// average, unlike a peak, does not hinge on where one garbage
// collection cycle happened to peak.
type memSampler struct {
	sum, n atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			m.sum.Add(samples[0].Value.Uint64() - samples[1].Value.Uint64())
			m.n.Add(1)
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stopMB stops the sampler and returns the mean in MB.
func (m *memSampler) stopMB() float64 {
	close(m.stop)
	<-m.done
	return float64(m.sum.Load()) / float64(max(m.n.Load(), 1)) / (1 << 20)
}
