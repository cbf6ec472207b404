package pose

import (
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// RefineAbsPose runs iters Gauss-Newton steps on the reprojection error
// over (R, t), with the rotation updated through the so(3) exponential.
// This is the nonlinear half of the absolute-pose gold standard.
func RefineAbsPose[T scalar.Real[T]](init Pose[T], corrs []AbsCorrespondence[T], iters int) Pose[T] {
	p := Pose[T]{R: init.R.Clone(), T: init.T.Clone()}
	like := p.T[0]
	lm := like.FromFloat(1e-9)

	for it := 0; it < iters; it++ {
		j, r := absJacobian(p, corrs)
		jt := j.Transpose()
		normal := jt.Mul(j)
		for d := 0; d < 6; d++ {
			normal.Set(d, d, normal.At(d, d).Add(lm))
		}
		rhs := jt.MulVec(r).Neg()
		delta, err := mat.Solve(normal, rhs)
		if err != nil {
			break
		}
		omega := mat.Vec[T]{delta[0], delta[1], delta[2]}
		p.R = geom.ExpSO3(omega).Mul(p.R)
		p.T = p.T.Add(mat.Vec[T]{delta[3], delta[4], delta[5]})
		if delta.Norm().Float() < 1e-12 {
			break
		}
	}
	return p
}

// absJacobian returns the 2n×6 Jacobian of the reprojection residuals
// at p and the residuals themselves; a correspondence within 1e-9 of
// the camera plane leaves its two rows zero. With a 3×3 rotation it
// runs natively (absJacobianNat) or through absJacobianHooked, as the
// mat package's fast-path rule picks.
func absJacobian[T scalar.Real[T]](p Pose[T], corrs []AbsCorrespondence[T]) (mat.Mat[T], mat.Vec[T]) {
	if p.R.Rows() == 3 && p.R.Cols() == 3 && !mat.ReferenceKernels() {
		switch pp := any(p).(type) {
		case Pose[scalar.F32]:
			j, r := absJacobianNat(pp, any(corrs).([]AbsCorrespondence[scalar.F32]))
			return any(j).(mat.Mat[T]), any(r).(mat.Vec[T])
		case Pose[scalar.F64]:
			j, r := absJacobianNat(pp, any(corrs).([]AbsCorrespondence[scalar.F64]))
			return any(j).(mat.Mat[T]), any(r).(mat.Vec[T])
		}
	}
	return absJacobianHooked(p, corrs)
}

// absJacobianHooked is absJacobian through the hooked matrix and scalar
// layers.
func absJacobianHooked[T scalar.Real[T]](p Pose[T], corrs []AbsCorrespondence[T]) (mat.Mat[T], mat.Vec[T]) {
	like := p.T[0]
	one := scalar.One(like.FromFloat(1))
	n := len(corrs)
	j := mat.Zeros[T](2*n, 6)
	r := make(mat.Vec[T], 2*n)
	for i, c := range corrs {
		pc := p.Apply(c.X)
		z := pc[2]
		if z.Abs().LessEq(scalar.C(z, 1e-9)) {
			continue
		}
		invZ := one.Div(z)
		u := pc[0].Mul(invZ)
		v := pc[1].Mul(invZ)
		r[2*i] = u.Sub(c.U[0])
		r[2*i+1] = v.Sub(c.U[1])

		// d(proj)/d(pc).
		// du = [1/z, 0, -x/z²], dv = [0, 1/z, -y/z²].
		dud := mat.Vec[T]{invZ, scalar.Zero(z), u.Neg().Mul(invZ)}
		dvd := mat.Vec[T]{scalar.Zero(z), invZ, v.Neg().Mul(invZ)}
		// d(pc)/dω = -[R·X]× (left-multiplied update exp(ω)·R),
		// d(pc)/dt = I.
		rx := p.R.MulVec(c.X)
		hat := geom.Hat(rx)
		for col := 0; col < 3; col++ {
			var su, sv T
			for k := 0; k < 3; k++ {
				su = su.Sub(dud[k].Mul(hat.At(k, col)))
				sv = sv.Sub(dvd[k].Mul(hat.At(k, col)))
			}
			j.Set(2*i, col, su)
			j.Set(2*i+1, col, sv)
			j.Set(2*i, 3+col, dud[col])
			j.Set(2*i+1, 3+col, dvd[col])
		}
	}
	return j, r
}

// Per-correspondence charges of absJacobianHooked. Every correspondence
// pays p.Apply (the 3×3 MulVec, F18 M21 B3, plus the 3-element Add, F3
// M9) and the depth test (Abs, one compare). One in front of the camera
// adds the residuals (F5), the projection derivatives (F4), R·X (F18
// M21 B3), geom.Hat (three Negs, six Sets) and the 3×6 Jacobian block
// (36 float ops, 18 At and 12 Set).
var (
	absJacSkipCost = profile.Counts{F: 18 + 3 + 1, M: 21 + 9, B: 3 + 1}
	absJacRowCost  = profile.Counts{
		F: absJacSkipCost.F + 5 + 4 + 18 + 3 + 36,
		M: absJacSkipCost.M + 21 + 6 + 30,
		I: 6 + 30,
		B: absJacSkipCost.B + 3,
	}
)

// absJacobianNat is absJacobianHooked on native floats and stack
// arrays: the same products and sums in the same order (mat's MulVec
// and Add loops, then the scalar tail), so J and r are bit-identical.
// It charges the hooked body's mix once.
func absJacobianNat[F scalar.Native[F]](p Pose[F], corrs []AbsCorrespondence[F]) (mat.Mat[F], mat.Vec[F]) {
	var like F
	tiny := like.FromFloat(1e-9)
	rm := (*[9]F)(p.R.Raw())
	t := (*[3]F)(p.T)
	n := len(corrs)
	jd := make([]F, 2*n*6)
	r := make(mat.Vec[F], 2*n)
	var kept uint64
	for i, c := range corrs {
		x := (*[3]F)(c.X)
		var rx, pc [3]F
		for row := 0; row < 3; row++ {
			var acc F
			for k := 0; k < 3; k++ {
				acc = acc + rm[row*3+k]*x[k]
			}
			rx[row] = acc
			pc[row] = acc + t[row]
		}
		z := pc[2]
		if z < 0 {
			z = -z
		}
		if z <= tiny {
			continue
		}
		kept++
		z = pc[2]
		invZ := 1 / z
		u := pc[0] * invZ
		v := pc[1] * invZ
		r[2*i] = u - c.U[0]
		r[2*i+1] = v - c.U[1]
		var zero F
		dud := [3]F{invZ, zero, -u * invZ}
		dvd := [3]F{zero, invZ, -v * invZ}
		hat := [9]F{zero, -rx[2], rx[1], rx[2], zero, -rx[0], -rx[1], rx[0], zero}
		row0, row1 := jd[(2*i)*6:(2*i)*6+6], jd[(2*i+1)*6:(2*i+1)*6+6]
		for col := 0; col < 3; col++ {
			var su, sv F
			for k := 0; k < 3; k++ {
				su = su - dud[k]*hat[k*3+col]
				sv = sv - dvd[k]*hat[k*3+col]
			}
			row0[col], row1[col] = su, sv
			row0[3+col], row1[3+col] = dud[col], dvd[col]
		}
	}
	cost := scalar.ScaleCounts(absJacSkipCost, uint64(n)-kept)
	cost.Add(scalar.ScaleCounts(absJacRowCost, kept))
	profile.AddCounts(cost)
	return mat.New(2*n, 6, jd), r
}

// AbsGoldStandard is the absolute-pose gold standard: DLT initialization
// followed by Gauss-Newton reprojection refinement — the absgoldstd
// kernel of the suite.
func AbsGoldStandard[T scalar.Real[T]](corrs []AbsCorrespondence[T]) (Pose[T], error) {
	init, err := DLT(corrs)
	if err != nil {
		return Pose[T]{}, err
	}
	return RefineAbsPose(init, corrs, 10), nil
}

// RefineRelPose runs damped Gauss-Newton on the Sampson error over
// (R, t) with numerically differentiated Jacobians, renormalizing the
// translation each step to fix the scale gauge. This is the nonlinear
// half of the relative-pose gold standard and the local-optimization
// step inside rel-lo-ransac.
func RefineRelPose[T scalar.Real[T]](init Pose[T], corrs []RelCorrespondence[T], iters int) Pose[T] {
	p := Pose[T]{R: init.R.Clone(), T: init.T.Normalized()}
	like := p.T[0]
	one := scalar.One(like.FromFloat(1))
	h := like.FromFloat(1e-6)
	lm := like.FromFloat(1e-8)

	residuals := func(q Pose[T]) mat.Vec[T] {
		e := EssentialFromPose(q)
		r := make(mat.Vec[T], len(corrs))
		for i, c := range corrs {
			r[i] = SampsonErr(e, c)
		}
		return r
	}
	perturb := func(q Pose[T], k int, step T) Pose[T] {
		out := Pose[T]{R: q.R, T: q.T.Clone()}
		if k < 3 {
			omega := mat.ZeroVec[T](3)
			for i := range omega {
				omega[i] = scalar.Zero(step)
			}
			omega[k] = step
			out.R = geom.ExpSO3(omega).Mul(q.R)
		} else {
			out.T[k-3] = out.T[k-3].Add(step)
			out.T = out.T.Normalized()
		}
		return out
	}

	for it := 0; it < iters; it++ {
		r0 := residuals(p)
		n := len(corrs)
		j := mat.Zeros[T](n, 6)
		for k := 0; k < 6; k++ {
			rp := residuals(perturb(p, k, h))
			rmPose := perturb(p, k, h.Neg())
			rm := residuals(rmPose)
			invH := one.Div(h.Mul(like.FromFloat(2)))
			for i := 0; i < n; i++ {
				j.Set(i, k, rp[i].Sub(rm[i]).Mul(invH))
			}
		}
		jt := j.Transpose()
		normal := jt.Mul(j)
		for d := 0; d < 6; d++ {
			normal.Set(d, d, normal.At(d, d).Add(lm.Add(normal.At(d, d).Abs().Mul(like.FromFloat(1e-6)))))
		}
		rhs := jt.MulVec(r0).Neg()
		delta, err := mat.Solve(normal, rhs)
		if err != nil {
			break
		}
		omega := mat.Vec[T]{delta[0], delta[1], delta[2]}
		cand := Pose[T]{
			R: geom.ExpSO3(omega).Mul(p.R),
			T: p.T.Add(mat.Vec[T]{delta[3], delta[4], delta[5]}).Normalized(),
		}
		// Accept only improving steps (simple LM-style guard).
		if residuals(cand).NormSq().Less(r0.NormSq()) {
			p = cand
		} else {
			break
		}
		if delta.Norm().Float() < 1e-12 {
			break
		}
	}
	return p
}

// RelGoldStandard is the relative-pose gold standard: normalized 8-point
// initialization followed by Sampson-error refinement — the relgoldstd
// kernel of the suite.
func RelGoldStandard[T scalar.Real[T]](corrs []RelCorrespondence[T]) (Pose[T], error) {
	init, err := EightPoint(corrs)
	if err != nil {
		return Pose[T]{}, err
	}
	return RefineRelPose(init, corrs, 10), nil
}
