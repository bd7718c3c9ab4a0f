package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a tail is reported at, highest first,
// in per mille so the sample-count arithmetic stays exact. The tail is
// p99 when the samples allow it.
var tailLevels = []int{990, 950, 900, 750, 500}

// tailPerMille returns the highest tail level (per mille) that has at
// least ten samples beyond it among n samples, or 0 when even the
// median has fewer.
func tailPerMille(n int) int {
	for _, pm := range tailLevels {
		if beyond(n, pm) >= 10 {
			return pm
		}
	}
	return 0
}

// beyond counts the samples ranked strictly above the pm-per-mille
// nearest-rank quantile of n samples.
func beyond(n, pm int) int {
	return n - (n*pm+999)/1000
}

// quantileSorted is the nearest-rank quantile of sorted values at pm per
// mille.
func quantileSorted(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := (len(sorted)*pm + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// reservoirCap bounds the values a dist keeps. Beyond it a dist keeps a
// uniform sample (reservoir sampling), so a traced run that times
// millions of PostSample calls stays small; 200k kept values still put
// 2000 beyond the p99.
const reservoirCap = 200_000

// dist is a set of timings or other observations. Quantiles are exact
// up to reservoirCap values and estimated from a uniform sample beyond.
type dist struct {
	v      []float64
	total  int // observations seen, kept or not
	rng    uint64
	sorted bool
}

func (d *dist) add(x float64) {
	d.total++
	d.sorted = false
	if len(d.v) < reservoirCap {
		d.v = append(d.v, x)
		return
	}
	d.rng = d.rng*6364136223846793005 + 1442695040888963407
	if j := int((d.rng >> 33) % uint64(d.total)); j < reservoirCap {
		d.v[j] = x
	}
}

// merge folds o's kept values into d.
func (d *dist) merge(o *dist) {
	seen := d.total + o.total
	for _, x := range o.v {
		d.add(x)
	}
	d.total = seen
}

// n is the number of observations, kept or not.
func (d *dist) n() int { return d.total }

// q returns the pm-per-mille quantile.
func (d *dist) q(pm int) float64 {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	return quantileSorted(d.v, pm)
}

func median(xs []float64) float64 {
	var d dist
	for _, x := range xs {
		d.add(x)
	}
	return d.q(500)
}
