package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks. ok is false for an empty sample.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), true
}

// tailPercentile is percentile restricted by the reporting rule: a tail
// percentile is only reported when at least minBeyond samples lie beyond
// it. Below that, the figure would be set by a handful of samples.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if float64(len(xs))*(1-p) < minBeyond-1e-9 {
		return 0, false
	}
	return percentile(xs, p)
}

// median is the Harrell-Davis estimate of the 0.5-quantile, 0 for an
// empty sample. It weights every order statistic by the chance that it is
// the sample median of a resample, so it moves smoothly with the data.
// The sample median does not: a run's latencies cluster by program, and
// the middle rank can fall between two clusters 15% apart, so the plain
// median of the same work jumps between them from run to run.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a := 0.5 * float64(n+1)
	var v, prev float64
	for i, x := range s {
		next := betaInc(a, a, float64(i+1)/float64(n))
		v += (next - prev) * x
		prev = next
	}
	return v
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (section 6.4).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a ratio over no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile estimates the p-quantile of a telemetry histogram given as
// log2 bucket counts (bucket i holds values in [2^(i-1), 2^i), bucket 0
// values <= 0), interpolating linearly inside the bucket that holds it.
func histQuantile(buckets []int64, p float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var seen float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			return lo + lo*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Ldexp(1, len(buckets)-1)
}
