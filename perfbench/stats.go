package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest value with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), which is how run-to-run spreads are judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// msSorted returns the ops' latencies in sorted milliseconds.
func msSorted(ops []sample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.lat) / 1e6
	}
	sort.Float64s(out)
	return out
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// ratio is num/den, or 0 when nothing was counted in the base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
