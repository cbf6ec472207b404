package mat

import (
	"sort"

	"repro/internal/scalar"
)

// SymEigResult holds an eigendecomposition A = V·diag(W)·Vᵀ of a
// symmetric matrix, eigenvalues descending.
type SymEigResult[T scalar.Real[T]] struct {
	W Vec[T] // eigenvalues, descending
	V Mat[T] // columns are eigenvectors
}

// SymEigen computes the eigendecomposition of a symmetric matrix with the
// cyclic Jacobi method. F32 and F64 run natively (fast_eig.go).
func SymEigen[T scalar.Real[T]](a Mat[T]) SymEigResult[T] {
	if r, ok := symEigenFast(a); ok {
		return r
	}
	return symEigenHooked(a)
}

// symEigenHooked is SymEigen through the hooked matrix and scalar
// layers, and the oracle of symEigenNat.
func symEigenHooked[T scalar.Real[T]](a Mat[T]) SymEigResult[T] {
	n := a.Rows()
	like := a.like()
	one := scalar.One(like)
	two := like.FromFloat(2)
	eps := EpsOf(like)
	tol := eps.Mul(like.FromFloat(8))

	m := a.Clone()
	v := Identity(n, like)

	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal magnitude.
		var off T
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off = off.Add(m.At(i, j).Abs())
			}
		}
		scale := m.MaxAbs()
		if off.LessEq(tol.Mul(scale)) || off.IsZero() {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if apq.Abs().LessEq(tol.Mul(scale)) {
					continue
				}
				theta := m.At(q, q).Sub(m.At(p, p)).Div(two.Mul(apq))
				var t T
				if theta.Less(scalar.Zero(theta)) {
					t = one.Neg().Div(theta.Neg().Add(one.Add(theta.Mul(theta)).Sqrt()))
				} else {
					t = one.Div(theta.Add(one.Add(theta.Mul(theta)).Sqrt()))
				}
				c := one.Div(one.Add(t.Mul(t)).Sqrt())
				s := c.Mul(t)
				// Apply rotation: m = Jᵀ m J on rows/cols p, q.
				for k := 0; k < n; k++ {
					mkp, mkq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c.Mul(mkp).Sub(s.Mul(mkq)))
					m.Set(k, q, s.Mul(mkp).Add(c.Mul(mkq)))
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c.Mul(mpk).Sub(s.Mul(mqk)))
					m.Set(q, k, s.Mul(mpk).Add(c.Mul(mqk)))
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c.Mul(vkp).Sub(s.Mul(vkq)))
					v.Set(k, q, s.Mul(vkp).Add(c.Mul(vkq)))
				}
			}
		}
	}

	w, wh := borrowVec[T](n)
	defer wh.put()
	for i := 0; i < n; i++ {
		w[i] = m.At(i, i)
	}
	// Sort descending.
	idx, idxh := borrowSlice[int](n)
	defer idxh.put()
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return w[idx[y]].Less(w[idx[x]]) })
	ws := make(Vec[T], n)
	vs := Zeros[T](n, n)
	for newJ, oldJ := range idx {
		ws[newJ] = w[oldJ]
		for i := 0; i < n; i++ {
			vs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return SymEigResult[T]{W: ws, V: vs}
}

// Eig holds real Schur eigenvalues as (re, im) pairs.
type Eig[T scalar.Real[T]] struct {
	Re Vec[T]
	Im Vec[T]
}

// HessenbergEigen computes all eigenvalues of an upper Hessenberg matrix
// with the Francis shifted-QR iteration (the classical "hqr" algorithm).
// It is the engine behind companion-matrix polynomial root finding, which
// the 5-point relative pose solver depends on. The input is consumed.
// F32 and F64 run natively (fast_eig.go).
func HessenbergEigen[T scalar.Real[T]](h Mat[T]) Eig[T] {
	if eig, ok := hessenbergEigenFast(h); ok {
		return eig
	}
	return hessenbergEigenHooked(h)
}

// hessenbergEigenHooked is HessenbergEigen through the hooked matrix
// and scalar layers, the oracle of hessenbergEigenNat.
func hessenbergEigenHooked[T scalar.Real[T]](h Mat[T]) Eig[T] {
	n := h.Rows()
	like := h.like()
	zero := scalar.Zero(like)
	half := like.FromFloat(0.5)
	eps := EpsOf(like)

	re := make(Vec[T], n)
	im := make(Vec[T], n)

	// Overall matrix norm for deflation tests.
	var anorm T
	for i := 0; i < n; i++ {
		lo := i - 1
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < n; j++ {
			anorm = anorm.Add(h.At(i, j).Abs())
		}
	}
	if anorm.IsZero() {
		return Eig[T]{Re: re, Im: im}
	}

	nn := n - 1
	t := zero
	for nn >= 0 {
		its := 0
		var l int
		for {
			// Look for a single small subdiagonal element.
			for l = nn; l >= 1; l-- {
				s := h.At(l-1, l-1).Abs().Add(h.At(l, l).Abs())
				if s.IsZero() {
					s = anorm
				}
				if h.At(l, l-1).Abs().LessEq(eps.Mul(s)) {
					h.Set(l, l-1, zero)
					break
				}
			}
			x := h.At(nn, nn)
			if l == nn {
				// One real root found.
				re[nn] = x.Add(t)
				im[nn] = zero
				nn--
				break
			}
			y := h.At(nn-1, nn-1)
			w := h.At(nn, nn-1).Mul(h.At(nn-1, nn))
			if l == nn-1 {
				// Two roots found (real pair or complex conjugates).
				p := half.Mul(y.Sub(x))
				q := p.Mul(p).Add(w)
				z := q.Abs().Sqrt()
				x = x.Add(t)
				if zero.LessEq(q) {
					// Real pair.
					if p.Less(zero) {
						z = z.Neg()
					}
					z = p.Add(z)
					re[nn-1] = x.Add(z)
					re[nn] = re[nn-1]
					if !z.IsZero() {
						re[nn] = x.Sub(w.Div(z))
					}
					im[nn-1] = zero
					im[nn] = zero
				} else {
					re[nn-1] = x.Add(p)
					re[nn] = x.Add(p)
					im[nn-1] = z
					im[nn] = z.Neg()
				}
				nn -= 2
				break
			}
			if its == 60 {
				// No convergence; report what we have. The remaining
				// diagonal entries are the best available estimates.
				re[nn] = x.Add(t)
				im[nn] = zero
				nn--
				break
			}
			if its == 10 || its == 20 {
				// Exceptional shift.
				t = t.Add(x)
				for i := 0; i <= nn; i++ {
					h.Set(i, i, h.At(i, i).Sub(x))
				}
				s := h.At(nn, nn-1).Abs().Add(h.At(nn-1, nn-2).Abs())
				y = like.FromFloat(0.75).Mul(s)
				x = y
				w = like.FromFloat(-0.4375).Mul(s).Mul(s)
			}
			its++
			// Form the first column of (H - aI)(H - bI).
			var m int
			var p, q, r T
			for m = nn - 2; m >= l; m-- {
				z := h.At(m, m)
				rr := x.Sub(z)
				ss := y.Sub(z)
				p = rr.Mul(ss).Sub(w).Div(h.At(m+1, m)).Add(h.At(m, m+1))
				q = h.At(m+1, m+1).Sub(z).Sub(rr).Sub(ss)
				r = h.At(m+2, m+1)
				s := p.Abs().Add(q.Abs()).Add(r.Abs())
				if !s.IsZero() {
					p = p.Div(s)
					q = q.Div(s)
					r = r.Div(s)
				}
				if m == l {
					break
				}
				u := h.At(m, m-1).Abs().Mul(q.Abs().Add(r.Abs()))
				v := p.Abs().Mul(h.At(m-1, m-1).Abs().Add(z.Abs()).Add(h.At(m+1, m+1).Abs()))
				if u.LessEq(eps.Mul(v)) {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				h.Set(i, i-2, zero)
				if i != m+2 {
					h.Set(i, i-3, zero)
				}
			}
			// Double QR step on rows l..nn, columns m..nn.
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = h.At(k, k-1)
					q = h.At(k+1, k-1)
					r = zero
					if k != nn-1 {
						r = h.At(k+2, k-1)
					}
					x = p.Abs().Add(q.Abs()).Add(r.Abs())
					if !x.IsZero() {
						p = p.Div(x)
						q = q.Div(x)
						r = r.Div(x)
					}
				}
				s := p.Mul(p).Add(q.Mul(q)).Add(r.Mul(r)).Sqrt()
				if p.Less(zero) {
					s = s.Neg()
				}
				if s.IsZero() {
					continue
				}
				if k == m {
					if l != m {
						h.Set(k, k-1, h.At(k, k-1).Neg())
					}
				} else {
					h.Set(k, k-1, s.Neg().Mul(x))
				}
				p = p.Add(s)
				x = p.Div(s)
				y = q.Div(s)
				z := r.Div(s)
				q = q.Div(p)
				r = r.Div(p)
				// Row modification.
				for j := k; j <= nn; j++ {
					pp := h.At(k, j).Add(q.Mul(h.At(k+1, j)))
					if k != nn-1 {
						pp = pp.Add(r.Mul(h.At(k+2, j)))
						h.Set(k+2, j, h.At(k+2, j).Sub(pp.Mul(z)))
					}
					h.Set(k+1, j, h.At(k+1, j).Sub(pp.Mul(y)))
					h.Set(k, j, h.At(k, j).Sub(pp.Mul(x)))
				}
				mmin := nn
				if k+3 < nn {
					mmin = k + 3
				}
				// Column modification.
				for i := l; i <= mmin; i++ {
					pp := x.Mul(h.At(i, k)).Add(y.Mul(h.At(i, k+1)))
					if k != nn-1 {
						pp = pp.Add(z.Mul(h.At(i, k+2)))
						h.Set(i, k+2, h.At(i, k+2).Sub(pp.Mul(r)))
					}
					h.Set(i, k+1, h.At(i, k+1).Sub(pp.Mul(q)))
					h.Set(i, k, h.At(i, k).Sub(pp))
				}
			}
		}
	}
	return Eig[T]{Re: re, Im: im}
}

// RealEigenvalues returns the real eigenvalues of a general square matrix
// (imaginary part below tol·scale), via Hessenberg reduction + QR.
func RealEigenvalues[T scalar.Real[T]](a Mat[T]) Vec[T] {
	h := Hessenberg(a)
	eig := HessenbergEigen(h)
	like := a.like()
	eps := EpsOf(like)
	var scale T
	for i := range eig.Re {
		scale = scalar.Max(scale, scalar.Max(eig.Re[i].Abs(), eig.Im[i].Abs()))
	}
	tol := eps.Mul(like.FromFloat(1e6)).Mul(scalar.Max(scale, scalar.One(like)))
	// Pre-sized to the worst case (every eigenvalue real), so the append
	// loop allocates exactly once.
	out := make(Vec[T], 0, len(eig.Re))
	for i := range eig.Re {
		if eig.Im[i].Abs().LessEq(tol) {
			out = append(out, eig.Re[i])
		}
	}
	return out
}

// Hessenberg reduces a to upper Hessenberg form with Gaussian elimination
// and pivoting (companion matrices pass through unchanged). F32 and F64
// run natively (fast_eig.go).
func Hessenberg[T scalar.Real[T]](a Mat[T]) Mat[T] {
	if h, ok := hessenbergFast(a); ok {
		return h
	}
	return hessenbergHooked(a)
}

// hessenbergHooked is Hessenberg through the hooked matrix and scalar
// layers, the oracle of hessenbergNat.
func hessenbergHooked[T scalar.Real[T]](a Mat[T]) Mat[T] {
	n := a.Rows()
	h := a.Clone()
	zero := scalar.Zero(a.like())
	for m := 1; m < n-1; m++ {
		// Pivot: largest magnitude in column m-1 below row m.
		var x T
		i0 := m
		for j := m; j < n; j++ {
			if x.Abs().Less(h.At(j, m-1).Abs()) {
				x = h.At(j, m-1)
				i0 = j
			}
		}
		if i0 != m {
			h.SwapRows(i0, m)
			// Swap columns too to preserve eigenvalues.
			for k := 0; k < n; k++ {
				t := h.At(k, i0)
				h.Set(k, i0, h.At(k, m))
				h.Set(k, m, t)
			}
		}
		if !x.IsZero() {
			for i := m + 1; i < n; i++ {
				y := h.At(i, m-1)
				if y.IsZero() {
					continue
				}
				y = y.Div(x)
				h.Set(i, m-1, y)
				for j := m; j < n; j++ {
					h.Set(i, j, h.At(i, j).Sub(y.Mul(h.At(m, j))))
				}
				for j := 0; j < n; j++ {
					h.Set(j, m, h.At(j, m).Add(y.Mul(h.At(j, i))))
				}
			}
		}
	}
	// Zero the sub-subdiagonal multipliers stored during elimination.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			h.Set(i, j, zero)
		}
	}
	return h
}
