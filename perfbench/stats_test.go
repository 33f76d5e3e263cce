package main

import "testing"

func TestHighestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // 9.5 beyond the median
		{20, 50},   // exactly 10 beyond the median
		{99, 50},   // 9.9 beyond p90
		{100, 90},  // 10 beyond p90
		{199, 90},  // 9.95 beyond p95
		{200, 95},  // 10 beyond p95
		{999, 95},  // 9.99 beyond p99
		{1000, 99}, // 10 beyond p99
		{9999, 99}, // 9.999 beyond p99.9
		{10000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailAtFallsBackAndStatesN(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..500
	}
	got := tailAt(xs, 99)
	if got.P != 95 || got.N != 500 {
		t.Fatalf("tailAt(500 samples, 99) read p%v of n=%d, want p95 of n=500", got.P, got.N)
	}
	if got.Value != 475 { // nearest rank ceil(0.95·500) = 475
		t.Errorf("p95 of 1..500 = %v, want 475", got.Value)
	}
	if got := tailAt(xs, 50); got.P != 50 || got.Value != 250 {
		t.Errorf("p50 of 1..500 = p%v %v, want p50 250", got.P, got.Value)
	}
	if got := tailAt([]float64{3, 1, 2}, 99); got.P != 50 || got.Value != 2 || got.N != 3 {
		t.Errorf("tailAt of 3 samples = %+v, want the median (p50) of n=3", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{20, 1}, {40, 2}, {50, 3}, {99, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of {1,5,9} = %v, want 5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty median/mean should be 0")
	}
}
