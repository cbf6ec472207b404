package profile

import (
	"testing"
	"testing/quick"
)

func TestCollectBasic(t *testing.T) {
	c := Collect(func() {
		AddF(3)
		AddI(2)
		AddM(5)
		AddB(1)
	})
	want := Counts{F: 3, I: 2, M: 5, B: 1}
	if c != want {
		t.Fatalf("Collect = %+v, want %+v", c, want)
	}
	if c.Total() != 11 {
		t.Fatalf("Total = %d, want 11", c.Total())
	}
}

func TestCollectNested(t *testing.T) {
	var inner Counts
	outer := Collect(func() {
		AddF(1)
		inner = Collect(func() {
			AddI(4)
		})
		AddB(2)
	})
	if inner != (Counts{I: 4}) {
		t.Fatalf("inner = %+v", inner)
	}
	// Outer is credited with inner's work too.
	if outer != (Counts{F: 1, I: 4, B: 2}) {
		t.Fatalf("outer = %+v", outer)
	}
}

func TestInactiveHooksAreNoOps(t *testing.T) {
	AddF(100)
	AddI(100)
	AddM(100)
	AddB(100)
	c := Collect(func() {})
	if c.Total() != 0 {
		t.Fatalf("counts leaked into fresh record: %+v", c)
	}
}

// Collect begins a session and ends it on return: Active reports the
// session only in between.
func TestBeginEnd(t *testing.T) {
	rec := Collect(func() {
		if !Active() {
			t.Fatal("Active = false inside Collect")
		}
		AddF(7)
	})
	if Active() {
		t.Fatal("Active = true after Collect")
	}
	if rec.F != 7 {
		t.Fatalf("rec.F = %d, want 7", rec.F)
	}
}

func TestSubAndAdd(t *testing.T) {
	a := Counts{F: 10, I: 8, M: 6, B: 4}
	b := Counts{F: 1, I: 2, M: 3, B: 4}
	d := a.Sub(b)
	if d != (Counts{F: 9, I: 6, M: 3, B: 0}) {
		t.Fatalf("Sub = %+v", d)
	}
	d.Add(b)
	if d != a {
		t.Fatalf("Add(Sub) != original: %+v vs %+v", d, a)
	}
}

func TestScale(t *testing.T) {
	c := Counts{F: 100, I: 200, M: 300, B: 400}
	h := c.Scale(0.5)
	if h != (Counts{F: 50, I: 100, M: 150, B: 200}) {
		t.Fatalf("Scale(0.5) = %+v", h)
	}
}

func TestAddCounts(t *testing.T) {
	got := Collect(func() {
		AddCounts(Counts{F: 2, I: 3})
		AddCounts(Counts{M: 4, B: 5})
	})
	if got != (Counts{F: 2, I: 3, M: 4, B: 5}) {
		t.Fatalf("got %+v", got)
	}
}

// Property: counters are monotone — collecting more ops never decreases
// any class.
func TestPropMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		c := Collect(func() {
			AddF(uint64(a))
			AddF(uint64(b))
		})
		return c.F == uint64(a)+uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sub then Add round-trips whenever the subtraction is valid.
func TestPropSubAddRoundTrip(t *testing.T) {
	f := func(f1, i1, m1, b1, f2, i2, m2, b2 uint16) bool {
		big := Counts{
			F: uint64(f1) + uint64(f2), I: uint64(i1) + uint64(i2),
			M: uint64(m1) + uint64(m2), B: uint64(b1) + uint64(b2),
		}
		small := Counts{F: uint64(f2), I: uint64(i2), M: uint64(m2), B: uint64(b2)}
		d := big.Sub(small)
		d.Add(small)
		return d == big
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Scale rounds half away from zero rather than truncating, so modeled
// mixes do not drift low at non-integral scale factors; non-positive
// products clamp to zero (counts are unsigned).
func TestScaleRoundsHalfAwayFromZero(t *testing.T) {
	cases := []struct {
		in   Counts
		k    float64
		want Counts
	}{
		{Counts{F: 3, I: 5, M: 7, B: 9}, 0.5, Counts{F: 2, I: 3, M: 4, B: 5}},
		{Counts{F: 1, I: 1, M: 1, B: 1}, 0.25, Counts{}},
		{Counts{F: 2, I: 2, M: 2, B: 2}, 0.25, Counts{F: 1, I: 1, M: 1, B: 1}},
		{Counts{F: 10, I: 10, M: 10, B: 10}, 1.0 / 3, Counts{F: 3, I: 3, M: 3, B: 3}},
		{Counts{F: 100}, 0, Counts{}},
		{Counts{F: 100}, -1, Counts{}},
		{Counts{F: 7}, 1.5, Counts{F: 11}}, // 10.5 rounds up, away from zero
	}
	for _, tc := range cases {
		if got := tc.in.Scale(tc.k); got != tc.want {
			t.Errorf("%+v.Scale(%v) = %+v, want %+v", tc.in, tc.k, got, tc.want)
		}
	}
}
