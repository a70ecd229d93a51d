package main

import (
	"math"
	"sort"
	"syscall"
)

// median of xs, as Python's statistics.median: the mean of the two middle
// values of an even count; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (sorted in place); 0 for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// sample is one completed operation: when it completed and how long it took,
// both in nanoseconds, done counted from the start of the run.
type sample struct {
	done, lat int64
}

// sliceRates splits a run's operations, in order of completion, into n runs
// of equal operation count and returns each run's rate in operations per
// second. from is when the first run began.
func sliceRates(ops []sample, from int64, n int) []float64 {
	if len(ops) < n {
		return nil
	}
	rates := make([]float64, 0, n)
	start := from
	for i := 0; i < n; i++ {
		lo, hi := i*len(ops)/n, (i+1)*len(ops)/n
		end := ops[hi-1].done
		if end > start {
			rates = append(rates, float64(hi-lo)/(float64(end-start)/1e9))
		}
		start = end
	}
	return rates
}

// quartileSpread is (Q3-Q1)/median of xs, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	med := median(d)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// spread is (max-min)/median of xs.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// selfCPUSeconds is user+sys CPU of this process so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}
