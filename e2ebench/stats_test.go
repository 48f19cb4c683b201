package main

import (
	"math"
	"testing"
)

// No percentile is reported without at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	cases := []struct {
		q    float64
		n    int
		want bool
	}{
		{0.5, 19, false}, {0.5, 20, true},
		{0.9, 99, false}, {0.9, 100, true},
		{0.99, 999, false}, {0.99, 1000, true},
	}
	for _, c := range cases {
		if _, ok := percentile(xs(c.n), c.q); ok != c.want {
			t.Errorf("p%g of %d samples: reported=%v, want %v", c.q*100, c.n, ok, c.want)
		}
	}
	if v, _ := percentile(xs(101), 0.5); v != 51 {
		t.Errorf("median of 1..101 = %v, want 51", v)
	}
	if v, _ := percentile(xs(1000), 0.99); math.Abs(v-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", v)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", g)
	}
}
