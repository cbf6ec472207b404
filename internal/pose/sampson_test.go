package pose

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// sampsonCases draws essential matrices and correspondences, including
// the degenerate ones: a zero E (num = den = 0) and an E whose only
// nonzero entry is E[2][2], which makes den zero with num nonzero, so
// the Abs branch sees both signs.
func sampsonCases[T scalar.Real[T]](like T, rng *rand.Rand, n int) ([]mat.Mat[T], []RelCorrespondence[T]) {
	var es []mat.Mat[T]
	var cs []RelCorrespondence[T]
	vec := func(a, b float64) mat.Vec[T] { return mat.Vec[T]{like.FromFloat(a), like.FromFloat(b)} }
	for i := 0; i < n; i++ {
		d := make([]T, 9)
		switch i % 8 {
		case 0: // zero E
		case 1:
			d[8] = like.FromFloat(rng.NormFloat64())
		default:
			for j := range d {
				d[j] = like.FromFloat(rng.NormFloat64())
			}
		}
		es = append(es, mat.New(3, 3, d))
		cs = append(cs, RelCorrespondence[T]{
			U1: vec(rng.NormFloat64(), rng.NormFloat64()),
			U2: vec(rng.NormFloat64(), rng.NormFloat64()),
		})
	}
	return es, cs
}

// checkSampson requires SampsonErr to return sampsonHooked's bits and
// record its counts, in the fast and the reference-kernel mode.
func checkSampson[T scalar.Real[T]](t *testing.T, like T) {
	t.Helper()
	es, cs := sampsonCases(like, rand.New(rand.NewSource(11)), 400)
	for _, ref := range []bool{false, true} {
		prev := mat.SetReferenceKernels(ref)
		for i := range es {
			var got, want T
			gotC := profile.Collect(func() { got = SampsonErr(es[i], cs[i]) })
			wantC := profile.Collect(func() { want = sampsonHooked(es[i], cs[i]) })
			if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
				t.Fatalf("%T ref=%v case %d: %v, hooked %v", like, ref, i, got, want)
			}
			if gotC != wantC {
				t.Fatalf("%T ref=%v case %d: counts %+v, hooked %+v", like, ref, i, gotC, wantC)
			}
		}
		mat.SetReferenceKernels(prev)
	}
}

func TestSampsonErrMatchesHooked(t *testing.T) {
	checkSampson(t, scalar.F32(0))
	checkSampson(t, scalar.F64(0))
	checkSampson(t, fixed.New(0, 16))
}

func TestSampsonErrNativeDoesNotAllocate(t *testing.T) {
	es, cs := sampsonCases(scalar.F64(0), rand.New(rand.NewSource(12)), 8)
	var sink scalar.F64
	if n := testing.AllocsPerRun(100, func() {
		for i := range es {
			sink = sink.Add(SampsonErr(es[i], cs[i]))
		}
	}); n != 0 {
		t.Fatalf("SampsonErr allocates %v times per batch", n)
	}
}
