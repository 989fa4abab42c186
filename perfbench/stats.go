package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// samples is a set of latency observations summarized by exact order
// statistics of the sorted values, never by histogram buckets.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle sample (the mean of the two middle ones for an
// even count), or 0 for no samples: a request class the run did not
// exercise.
func (s samples) median() float64 {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// beyond it, but none above the 90th percentile, and its percentile
// rank. Below 21 samples no such statistic lies above the median, so
// the median is returned (rank 50) and the tail carries no more
// information than the median. The cap keeps the tail of a run with
// many samples off its last percent, where a daemon run's ten slowest
// requests are host stalls: over ten runs its 99th percentile spread
// by 19% and 27% of its median in two sets, the 90th by 5% in a third.
func (s samples) tail() (value, pct float64) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	k := min(n-11, 9*n/10-1)
	if k < (n-1)/2 {
		return s.median(), 50
	}
	return v[k], 100 * float64(k+1) / float64(n)
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
