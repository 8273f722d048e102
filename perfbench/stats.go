package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q·n samples at or below it.  xs
// need not be sorted; it is not modified.  An empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest-rank index of the q-quantile of n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie above the nearest-rank
// q-quantile of n samples.  A tail percentile is reported as resolved
// only when at least ten samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// resolved reports whether n samples place at least ten beyond the
// q-quantile.
func resolved(n int, q float64) bool { return beyond(n, q) >= 10 }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minWindows is how many resolving windows a run must hold before a
// tail percentile is taken window by window.
const minWindows = 5

// resolvingSize is the smallest sample count that places ten samples
// beyond the q-quantile: 1000 for p99, 100 for p90.
func resolvingSize(q float64) int {
	n := int(math.Ceil(10/(1-q) - 1e-9))
	for !resolved(n, q) {
		n++
	}
	return n
}

// tail returns the q-quantile of xs, which are in completion order.
// When xs holds at least minWindows consecutive windows of the
// resolving size, it is the median of the windows' q-quantiles, so a
// burst of host stalls moves a few windows rather than the reported
// tail; otherwise it is the q-quantile of the whole run.  windows is
// how many windows were used (0 for the whole run).
func tail(xs []float64, q float64) (value float64, windows int) {
	size := resolvingSize(q)
	windows = len(xs) / size
	if windows < minWindows {
		return percentile(xs, q), 0
	}
	per := make([]float64, windows)
	for k := range per {
		per[k] = percentile(xs[k*size:(k+1)*size], q)
	}
	return median(per), windows
}

// geomean is the geometric mean of positive values (0 for none, or if
// any value is not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// interval is a half-open span of time [lo, hi) in any unit.
type interval struct{ lo, hi float64 }

// covered returns the length of the union of ivs clipped to within.
func covered(within interval, ivs []interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := math.Max(iv.lo, within.lo), math.Min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, curLo, curHi := 0.0, 0.0, math.Inf(-1)
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
		} else if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that
// its children cover (children may overlap one another).
func selfTime(span interval, children []interval) float64 {
	return (span.hi - span.lo) - covered(span, children)
}

// unattributedFrac is 1 − Σ layer self time / end-to-end wall time,
// clamped to [0, 1].
func unattributedFrac(layerSelf, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	f := 1 - layerSelf/wall
	return math.Min(1, math.Max(0, f))
}
