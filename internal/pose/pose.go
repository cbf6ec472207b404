// Package pose implements the geometric pose-estimation kernels of the
// suite: minimal and linear absolute-pose solvers (p3p, up2p, dlt, and
// the gold-standard refinement), minimal and linear relative-pose solvers
// (5pt, 8pt, and the prior-aware up2pt, up3pt, u3pt), homography
// estimation, and the LO-RANSAC robust wrapper that Case Study #4 builds
// on.
//
// Conventions: cameras are calibrated (normalized image coordinates);
// a pose maps world/first-camera coordinates into the (second) camera
// frame, x_cam = R·X + t. Relative poses are defined so that x2 ~ R·x1
// + t up to scale along the bearing.
package pose

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// Pose is a rigid transform (R, t).
type Pose[T scalar.Real[T]] struct {
	R mat.Mat[T] // 3×3 rotation
	T mat.Vec[T] // translation
}

// IdentityPose returns the identity transform in like's format.
func IdentityPose[T scalar.Real[T]](like T) Pose[T] {
	one := like.FromFloat(1)
	z := like.FromFloat(0)
	return Pose[T]{R: mat.Identity(3, one), T: mat.Vec[T]{z, z, z}}
}

// Apply maps a world point into the camera frame.
func (p Pose[T]) Apply(x mat.Vec[T]) mat.Vec[T] { return p.R.MulVec(x).Add(p.T) }

// RotationErrDeg returns the rotation angle between p and q in degrees.
func (p Pose[T]) RotationErrDeg(q Pose[T]) float64 { return geom.RotationAngleDeg(p.R, q.R) }

// TranslationDirErrDeg returns the angle between the translation
// directions in degrees — the scale-free metric for relative pose.
func (p Pose[T]) TranslationDirErrDeg(q Pose[T]) float64 {
	a := p.T.Normalized().Floats()
	b := q.T.Normalized().Floats()
	dot := a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
	if dot > 1 {
		dot = 1
	} else if dot < -1 {
		dot = -1
	}
	deg := acosDeg(dot)
	// Relative translation is defined up to sign for some solvers.
	if deg > 90 {
		deg = 180 - deg
	}
	return deg
}

func acosDeg(c float64) float64 {
	// Small local helper to avoid importing math in the generic core.
	return scalar.Acos(scalar.F64(c)).Float() * 180 / 3.141592653589793
}

// AbsCorrespondence pairs a 3D world point with its normalized image
// observation (bearing with unit z).
type AbsCorrespondence[T scalar.Real[T]] struct {
	X mat.Vec[T] // 3D world point
	U mat.Vec[T] // normalized image point (u, v)
}

// RelCorrespondence pairs normalized image observations of the same 3D
// point in two views.
type RelCorrespondence[T scalar.Real[T]] struct {
	U1 mat.Vec[T] // view 1 (u, v)
	U2 mat.Vec[T] // view 2 (u, v)
}

// bearing lifts a normalized image point to a unit bearing vector.
func bearing[T scalar.Real[T]](u mat.Vec[T]) mat.Vec[T] {
	one := scalar.One(u[0])
	return mat.Vec[T]{u[0], u[1], one}.Normalized()
}

// homog lifts a normalized image point to homogeneous (u, v, 1).
func homog[T scalar.Real[T]](u mat.Vec[T]) mat.Vec[T] {
	return mat.Vec[T]{u[0], u[1], scalar.One(u[0])}
}

// ReprojectErr returns the reprojection error of pose p on correspondence
// c in normalized image units; points behind the camera return a large
// sentinel value.
//
// RANSAC scores every correspondence against every hypothesis with it,
// so it has a native body on stack arrays (reprojectNat) that charges
// its mix once, beside the hooked body, reprojectHooked; the mat
// package's fast-path rule picks between them.
func ReprojectErr[T scalar.Real[T]](p Pose[T], c AbsCorrespondence[T]) T {
	if p.R.Rows() == 3 && p.R.Cols() == 3 && !mat.ReferenceKernels() {
		var out T
		switch o := any(&out).(type) {
		case *scalar.F32:
			*o = reprojectNat(any(p.R.Raw()).([]scalar.F32), any([]T(p.T)).([]scalar.F32),
				any([]T(c.X)).([]scalar.F32), any([]T(c.U)).([]scalar.F32))
			return out
		case *scalar.F64:
			*o = reprojectNat(any(p.R.Raw()).([]scalar.F64), any([]T(p.T)).([]scalar.F64),
				any([]T(c.X)).([]scalar.F64), any([]T(c.U)).([]scalar.F64))
			return out
		}
	}
	return reprojectHooked(p, c)
}

// reprojectCost is what reprojectHooked charges up to its depth test:
// p.Apply (the 3×3 MulVec, F18 M21 B3, and the 3-element Add, F3 M9)
// and one compare. A point in front of the camera adds the two
// residuals and the Hypot (F8).
var reprojectCost = profile.Counts{F: 18 + 3, M: 21 + 9, B: 3 + 1}

// reprojectNat is reprojectHooked on native floats: mat's MulVec and
// Add loops, then the scalar tail, in the same order.
func reprojectNat[F scalar.Native[F]](r, t, x, u []F) F {
	r, t, x = r[:9], t[:3], x[:3]
	var xc [3]F
	for row := 0; row < 3; row++ {
		var acc F
		for k := 0; k < 3; k++ {
			acc = acc + r[row*3+k]*x[k]
		}
		xc[row] = acc + t[row]
	}
	cost := reprojectCost
	if xc[2] <= xc[2].FromFloat(1e-9) {
		profile.AddCounts(cost)
		return xc[2].FromFloat(1e6)
	}
	du := xc[0]/xc[2] - u[0]
	dv := xc[1]/xc[2] - u[1]
	cost.F += 8
	profile.AddCounts(cost)
	return F(math.Sqrt(float64(du*du + dv*dv)))
}

// reprojectHooked is ReprojectErr through the hooked matrix and scalar
// layers.
func reprojectHooked[T scalar.Real[T]](p Pose[T], c AbsCorrespondence[T]) T {
	xc := p.Apply(c.X)
	big := scalar.C(xc[2], 1e6)
	if xc[2].LessEq(scalar.C(xc[2], 1e-9)) {
		return big
	}
	du := xc[0].Div(xc[2]).Sub(c.U[0])
	dv := xc[1].Div(xc[2]).Sub(c.U[1])
	return scalar.Hypot(du, dv)
}

// EssentialFromPose returns E = [t]×·R.
func EssentialFromPose[T scalar.Real[T]](p Pose[T]) mat.Mat[T] {
	return geom.Hat(p.T).Mul(p.R)
}

// EpipolarResidual returns |x2ᵀ·E·x1| for a correspondence — the
// algebraic epipolar error.
func EpipolarResidual[T scalar.Real[T]](e mat.Mat[T], c RelCorrespondence[T]) T {
	x1 := homog(c.U1)
	x2 := homog(c.U2)
	return x2.Dot(e.MulVec(x1)).Abs()
}

// DecomposeEssential extracts the four (R, t) candidates from an
// essential matrix and selects the one with the most points passing the
// cheirality (positive depth) test.
func DecomposeEssential[T scalar.Real[T]](e mat.Mat[T], corrs []RelCorrespondence[T]) (Pose[T], bool) {
	like := e.At(0, 0)
	one := scalar.One(like.FromFloat(1))
	res := mat.SVD(e)
	u, v := res.U, res.V
	// Enforce proper rotations.
	if mat.Det3(u).Float() < 0 {
		u = u.Scale(one.Neg())
	}
	if mat.Det3(v).Float() < 0 {
		v = v.Scale(one.Neg())
	}
	w := mat.Zeros[T](3, 3)
	w.Set(0, 1, one.Neg())
	w.Set(1, 0, one)
	w.Set(2, 2, one)

	r1 := u.Mul(w).Mul(v.Transpose())
	r2 := u.Mul(w.Transpose()).Mul(v.Transpose())
	t := u.Col(2)

	best := -1
	var bestPose Pose[T]
	for _, cand := range []Pose[T]{
		{R: r1, T: t}, {R: r1, T: t.Neg()},
		{R: r2, T: t}, {R: r2, T: t.Neg()},
	} {
		n := 0
		for _, c := range corrs {
			if cheiralityOK(cand, c) {
				n++
			}
		}
		if n > best {
			best = n
			bestPose = cand
		}
	}
	if best <= 0 {
		return bestPose, false
	}
	return bestPose, true
}

// cheiralityOK triangulates c under pose p (midpoint method) and checks
// positive depth in both views.
func cheiralityOK[T scalar.Real[T]](p Pose[T], c RelCorrespondence[T]) bool {
	z1, z2, ok := TriangulateDepths(p, c)
	if !ok {
		return false
	}
	zero := scalar.Zero(z1)
	return zero.Less(z1) && zero.Less(z2)
}

// TriangulateDepths solves z2·x2 = z1·R·x1 + t for the two depths by
// least squares on the 3 equations.
func TriangulateDepths[T scalar.Real[T]](p Pose[T], c RelCorrespondence[T]) (z1, z2 T, ok bool) {
	x1 := homog(c.U1)
	x2 := homog(c.U2)
	rx1 := p.R.MulVec(x1)
	// [rx1, -x2]·(z1, z2)ᵀ = -t
	a := mat.Zeros[T](3, 2)
	for i := 0; i < 3; i++ {
		a.Set(i, 0, rx1[i])
		a.Set(i, 1, x2[i].Neg())
	}
	sol, err := mat.LeastSquares(a, p.T.Neg())
	if err != nil {
		var zero T
		return zero, zero, false
	}
	return sol[0], sol[1], true
}
