// Package stats holds the order statistics the benchmark and its compare
// helper share.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of values,
// sorting them in place. Zero when empty.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	i := int(math.Ceil(q*float64(len(values)))) - 1
	if i < 0 {
		i = 0
	}
	return values[i]
}

// Median returns the middle of values (the mean of the middle two when their
// number is even) without reordering them. Zero when empty.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so spreads
// printed here match the ones the acceptance rule is stated in.
func Quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Mean returns the arithmetic mean, zero when empty.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Ratio is a/b, zero when b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
