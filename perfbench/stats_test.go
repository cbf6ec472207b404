package main

import (
	"math"
	"testing"
)

func TestSupportsNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false},
		{100, 90, true},
		{19, 50, false},
		{20, 50, true},
		{999, 99, false},
		{1000, 99, true},
		{0, 50, false},
	}
	for _, c := range cases {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestHighestSupportedNeverAnUnsupportedP90(t *testing.T) {
	ps := []float64{50, 90, 99}
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n, ps)
		if ok != c.ok || got != c.want {
			t.Errorf("highestSupported(%d) = p%g, %v; want p%g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPctZeroWhenUnsupported(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := pct(xs, 90); got != 0 {
		t.Errorf("p90 of 99 samples = %g, want 0 (unsupported)", got)
	}
	xs = append(xs, 100)
	if got := pct(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g; want 1, 4", q1, q3)
	}
}

// Two workers' child spans overlap in time; a sweep's self time must
// subtract their union, not their sum.
func TestSelfTimeUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40},  // worker 1
		{20, 50},  // worker 2, overlapping worker 1
		{45, 60},  // worker 1 again, overlapping worker 2's tail
		{70, 80},  // disjoint
		{90, 120}, // runs past the parent's end
	}
	covered := unionLen(clip(children, parent.start, parent.end))
	if covered != 70 { // [10,60) + [70,80) + [90,100)
		t.Fatalf("union = %d, want 70", covered)
	}
	if self := (parent.end - parent.start) - covered; self != 30 {
		t.Errorf("self time = %d, want 30", self)
	}
	var sum int64
	for _, c := range children {
		sum += c.end - c.start
	}
	if sum == covered {
		t.Errorf("test spans do not overlap: sum %d equals union", sum)
	}
}

func TestUnionLenEdgeCases(t *testing.T) {
	if got := unionLen(nil); got != 0 {
		t.Errorf("unionLen(nil) = %d", got)
	}
	if got := unionLen([]interval{{5, 10}, {5, 10}}); got != 5 {
		t.Errorf("identical spans = %d, want 5", got)
	}
	if got := unionLen([]interval{{0, 10}, {10, 20}}); got != 20 {
		t.Errorf("touching spans = %d, want 20", got)
	}
	if got := unionLen([]interval{{0, 100}, {10, 20}}); got != 100 {
		t.Errorf("nested span = %d, want 100", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := percentile(s, 50); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	if got := percentile(s, 100); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 || math.IsNaN(got) {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}
