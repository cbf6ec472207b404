package mat

// Native one-sided Jacobi SVD loops for F32 and F64, following the same
// 1:1 transcription discipline as fast_fact.go: every hooked At/Set
// becomes a direct index plus an M+I tally, every hooked scalar method
// native arithmetic plus its tally, accumulated into one local
// profile.Counts the dispatcher flushes in a single AddCounts. The
// Jacobi sweep is heavily data-dependent — pairs that pass the
// convergence threshold skip the rotation entirely, and the rotation
// scalar formula branches on the sign of zeta — so the tallies are
// taken along the exact control-flow path, which is also why the
// numeric results stay bit-identical: the fast sweep converges in
// precisely the same pair order as the hooked reference.
//
// The shared pre-loop setup (EpsOf probe, tolerance, Clone, Identity)
// still runs through the hooked helpers: it is outside the hot loops and
// reusing the real implementations keeps its charges trivially identical.

import (
	"math"
	"sort"

	"repro/internal/profile"
	"repro/internal/scalar"
)

// svdKernelNat runs the Jacobi sweeps, column-norm extraction, and
// descending sort/permutation on u (m×n) and v (n×n) in place, returning
// the permuted factors.
func svdKernelNat[F native](cnt *profile.Counts, u, v []F, m, n int, tol F) (us []F, ss []F, vs []F) {
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq F
				for i := 0; i < m; i++ {
					cnt.M += 2
					cnt.I += 2 // At(i,p), At(i,q)
					cnt.F += 6 // 3 Mul + 3 Add
					up, uq := u[i*n+p], u[i*n+q]
					app = app + up*up
					aqq = aqq + uq*uq
					apq = apq + up*uq
				}
				cnt.F += 3 // Mul, Sqrt, Mul
				thresh := tol * F(math.Sqrt(float64(F(app*aqq))))
				cnt.F++ // Abs
				cnt.B++ // LessEq
				aabs := apq
				if aabs < 0 {
					aabs = -aabs
				}
				if aabs <= thresh {
					continue
				}
				converged = false
				cnt.F += 3 // Sub, Mul, Div
				zeta := (aqq - app) / F(2*apq)
				// The explicit F conversions pin every intermediate to one
				// rounding step, matching the hooked method-by-method
				// evaluation even on FMA-fusing architectures.
				zz := F(zeta * zeta)
				var t F
				cnt.B++ // Less(0)
				if zeta < 0 {
					cnt.F += 7 // Neg, Mul, Add, Sqrt, Neg, Add, Div
					t = -1 / F(-zeta+F(math.Sqrt(float64(F(1+zz)))))
				} else {
					cnt.F += 5 // Mul, Add, Sqrt, Add, Div
					t = 1 / F(zeta+F(math.Sqrt(float64(F(1+zz)))))
				}
				cnt.F += 4 // Mul, Add, Sqrt, Div
				c := 1 / F(math.Sqrt(float64(F(1+F(t*t)))))
				cnt.F++ // Mul
				s := F(c * t)
				for i := 0; i < m; i++ {
					cnt.M += 4
					cnt.I += 4 // 2 At + 2 Set
					cnt.F += 6 // 4 Mul + Sub + Add
					up, uq := u[i*n+p], u[i*n+q]
					u[i*n+p] = F(c*up) - F(s*uq)
					u[i*n+q] = F(s*up) + F(c*uq)
				}
				for i := 0; i < n; i++ {
					cnt.M += 4
					cnt.I += 4
					cnt.F += 6
					vp, vq := v[i*n+p], v[i*n+q]
					v[i*n+p] = F(c*vp) - F(s*vq)
					v[i*n+q] = F(s*vp) + F(c*vq)
				}
			}
		}
		if converged {
			break
		}
	}

	sv, svh := borrowSlice[F](n)
	defer svh.put()
	for j := 0; j < n; j++ {
		var acc F
		for i := 0; i < m; i++ {
			cnt.M++
			cnt.I++    // At(i,j)
			cnt.F += 2 // Mul, Add
			x := u[i*n+j]
			acc = acc + x*x
		}
		cnt.F++ // Sqrt
		sv[j] = F(math.Sqrt(float64(acc)))
		if sv[j] != 0 {
			cnt.F++ // Div
			inv := 1 / sv[j]
			for i := 0; i < m; i++ {
				cnt.M += 2
				cnt.I += 2 // At + Set
				cnt.F++    // Mul
				u[i*n+j] = u[i*n+j] * inv
			}
		}
	}

	idx, idxh := borrowSlice[int](n)
	defer idxh.put()
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		cnt.B++ // Less
		return sv[idx[y]] < sv[idx[x]]
	})
	us = make([]F, m*n)
	vs = make([]F, n*n)
	ss = make([]F, n)
	for newJ, oldJ := range idx {
		ss[newJ] = sv[oldJ]
		for i := 0; i < m; i++ {
			cnt.M += 2
			cnt.I += 2 // At + Set
			us[i*n+newJ] = u[i*n+oldJ]
		}
		for i := 0; i < n; i++ {
			cnt.M += 2
			cnt.I += 2
			vs[i*n+newJ] = v[i*n+oldJ]
		}
	}
	return us, ss, vs
}

// svdFast is the bulk path of SVD for m >= n inputs. The setup phase
// (epsilon probe, tolerance, Clone, Identity) runs through the same
// hooked helpers as the generic path; only the sweeps onward are
// transcribed.
func svdFast[T scalar.Real[T]](a Mat[T]) (SVDResult[T], bool) {
	if !nativeOf[T]() {
		return SVDResult[T]{}, false
	}
	m, n := a.rows, a.cols
	like := a.like()
	eps := EpsOf(like)
	tol := eps.Mul(like.FromFloat(8))

	u := a.Clone()
	v := Identity(n, like)

	var cnt profile.Counts
	var us, ss, vs any
	switch ud := any(u.d).(type) {
	case []scalar.F32:
		a2, b2, c2 := svdKernelNat(&cnt, ud, any(v.d).([]scalar.F32), m, n, any(tol).(scalar.F32))
		us, ss, vs = a2, b2, c2
	case []scalar.F64:
		a2, b2, c2 := svdKernelNat(&cnt, ud, any(v.d).([]scalar.F64), m, n, any(tol).(scalar.F64))
		us, ss, vs = a2, b2, c2
	default:
		return SVDResult[T]{}, false
	}
	profile.AddCounts(cnt)
	return SVDResult[T]{
		U: Mat[T]{rows: m, cols: n, d: us.([]T)},
		S: Vec[T](ss.([]T)),
		V: Mat[T]{rows: n, cols: n, d: vs.([]T)},
	}, true
}
