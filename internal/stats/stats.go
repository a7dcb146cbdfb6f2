// Package stats implements the statistical-fault-injection sample-size
// mathematics of Leveugle et al. (DATE 2009), which the paper uses to
// justify 2,000 faults per cell (2.88% error margin at 99% confidence).
package stats

import "math"

// zFor returns the standard normal quantile for common confidence
// levels (two-sided).
func zFor(confidence float64) float64 {
	switch {
	case confidence >= 0.999:
		return 3.2905
	case confidence >= 0.99:
		return 2.5758
	case confidence >= 0.95:
		return 1.9600
	case confidence >= 0.90:
		return 1.6449
	default:
		return 1.2816
	}
}

// SampleSize returns the number of faults to inject into a population
// of N fault sites for the desired error margin e (e.g. 0.0288) at the
// given confidence, assuming worst-case p = 0.5:
//
//	n = N / (1 + e^2 (N-1) / (z^2 p(1-p)))
func SampleSize(population uint64, margin, confidence float64) int {
	if population == 0 {
		return 0
	}
	z := zFor(confidence)
	nf := float64(population)
	p := 0.5
	n := nf / (1 + margin*margin*(nf-1)/(z*z*p*(1-p)))
	return int(math.Ceil(n))
}

// ErrorMargin inverts SampleSize: the margin achieved by n samples from
// a population of N at the given confidence (worst-case p = 0.5).
func ErrorMargin(samples int, population uint64, confidence float64) float64 {
	if samples <= 0 || population == 0 {
		return 1
	}
	z := zFor(confidence)
	nf := float64(population)
	n := float64(samples)
	if n >= nf {
		return 0
	}
	p := 0.5
	return z * math.Sqrt(p*(1-p)/n*(nf-n)/(nf-1))
}

// Proportion is an estimated rate with a confidence interval.
type Proportion struct {
	Estimate float64
	Lo, Hi   float64
}

// WilsonInterval returns the Wilson score interval for k successes out
// of n trials at the given confidence. The interval always contains the
// estimate: Lo is exactly 0 at k = 0 and Hi exactly 1 at k = n, where
// the closed form would otherwise land a rounding error past them.
func WilsonInterval(k, n int, confidence float64) Proportion {
	if n == 0 {
		return Proportion{}
	}
	z := zFor(confidence)
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return Proportion{
		Estimate: p,
		Lo:       math.Max(0, math.Min(p, center-half)),
		Hi:       math.Min(1, math.Max(p, center+half)),
	}
}
