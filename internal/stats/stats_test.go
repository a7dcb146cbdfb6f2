package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperSampleSize(t *testing.T) {
	// The paper cites 2,000 faults per component for a 2.88% margin at
	// 99% confidence; for any large population the Leveugle formula
	// should reproduce roughly that pairing.
	n := SampleSize(1<<30, 0.0288, 0.99)
	if n < 1900 || n > 2100 {
		t.Errorf("sample size for 2.88%%@99%% = %d, expected ~2000", n)
	}
	m := ErrorMargin(2000, 1<<30, 0.99)
	if math.Abs(m-0.0288) > 0.002 {
		t.Errorf("margin for 2000 samples = %.4f, expected ~0.0288", m)
	}
}

func TestSampleSizeSmallPopulation(t *testing.T) {
	// Sampling most of a small population needs almost all of it.
	if n := SampleSize(100, 0.01, 0.99); n < 95 || n > 100 {
		t.Errorf("small-population sample size = %d", n)
	}
	if n := SampleSize(0, 0.01, 0.99); n != 0 {
		t.Errorf("empty population sample size = %d", n)
	}
}

func TestErrorMarginEdges(t *testing.T) {
	if m := ErrorMargin(0, 1000, 0.99); m != 1 {
		t.Errorf("zero samples margin = %f", m)
	}
	if m := ErrorMargin(1000, 1000, 0.99); m != 0 {
		t.Errorf("census margin = %f", m)
	}
}

func TestMarginMonotonicInSamples(t *testing.T) {
	prop := func(seed int64) bool {
		n1 := int(seed%1000) + 10
		n2 := n1 * 2
		pop := uint64(1 << 24)
		return ErrorMargin(n2, pop, 0.99) <= ErrorMargin(n1, pop, 0.99)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfidenceOrdering(t *testing.T) {
	// Higher confidence -> wider margin for the same sample.
	m95 := ErrorMargin(500, 1<<24, 0.95)
	m99 := ErrorMargin(500, 1<<24, 0.99)
	if m99 <= m95 {
		t.Errorf("99%% margin %.4f should exceed 95%% margin %.4f", m99, m95)
	}
}

func TestWilsonInterval(t *testing.T) {
	p := WilsonInterval(50, 100, 0.95)
	if p.Estimate != 0.5 {
		t.Errorf("estimate = %f", p.Estimate)
	}
	if p.Lo >= 0.5 || p.Hi <= 0.5 {
		t.Errorf("interval [%f,%f] should bracket 0.5", p.Lo, p.Hi)
	}
	if p.Hi-p.Lo > 0.25 {
		t.Errorf("interval too wide: %f", p.Hi-p.Lo)
	}
	zero := WilsonInterval(0, 100, 0.95)
	if zero.Lo != 0 || zero.Estimate != 0 {
		t.Errorf("zero-successes interval: %+v", zero)
	}
	if zero.Hi <= 0 || zero.Hi > 0.1 {
		t.Errorf("zero-successes upper bound: %f", zero.Hi)
	}
	empty := WilsonInterval(0, 0, 0.95)
	if empty.Estimate != 0 || empty.Lo != 0 || empty.Hi != 0 {
		t.Errorf("empty interval: %+v", empty)
	}
}

func TestWilsonBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed%500) + 1
		k := int(seed % int64(n+1))
		p := WilsonInterval(k, n, 0.99)
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.Estimate && p.Estimate <= p.Hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWilsonBoundaryCases pins the k = 0 and k = n edges exhaustively:
// cancellation in the closed form can leave Lo a rounding error above
// the estimate 0, or Hi a rounding error below the estimate 1.
func TestWilsonBoundaryCases(t *testing.T) {
	for _, c := range []float64{0.90, 0.95, 0.99, 0.999} {
		for n := 1; n <= 5000; n++ {
			for _, k := range []int{0, n} {
				p := WilsonInterval(k, n, c)
				if !(p.Lo <= p.Estimate && p.Estimate <= p.Hi) ||
					(k == 0 && p.Lo != 0) || (k == n && p.Hi != 1) {
					t.Fatalf("WilsonInterval(%d, %d, %v) = %+v", k, n, c, p)
				}
			}
		}
	}
}
