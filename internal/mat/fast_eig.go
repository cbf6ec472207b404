package mat

// Native eigen-solver loops for F32 and F64: the companion-matrix QR
// iteration behind Poly.RealRoots, the Hessenberg reduction, and the
// cyclic Jacobi SymEigen behind NullSpace.
//
// They follow fast_fact.go's transcription discipline: every hooked
// At/Set becomes a direct index plus one tally, every hooked scalar
// method native arithmetic in the same order plus its tally, and the
// dispatcher flushes the local profile.Counts in one AddCounts. The QR
// iteration's path is data-dependent — deflation, the exceptional
// shifts at its 10 and 20, the bail-out at 60 — so the tallies ride the
// path rather than a closed form, and the results stay bit-identical
// because the native loop takes exactly the branches the hooked one
// would. oracle_test.go holds these loops to the hooked bodies (eig.go,
// poly.go), count for count.

import (
	"math"
	"sort"

	"repro/internal/profile"
	"repro/internal/scalar"
)

// flt converts a float64 at run time, exactly as FromFloat does (a
// constant conversion could round differently for F32).
func flt[F native](v float64) F { return F(v) }

func absNat[F native](v F) F {
	if v < 0 {
		return -v
	}
	return v
}

func sqrtNat[F native](v F) F { return F(math.Sqrt(float64(v))) }

// tally adds ma hooked element accesses (one M and one I each), fl
// scalar arithmetic ops (one F each) and br compares (one B each).
func tally(cnt *profile.Counts, ma, fl, br uint64) {
	cnt.M += ma
	cnt.I += ma
	cnt.F += fl
	cnt.B += br
}

// epsNat is EpsOf on native floats; each probe step is one Mul, Add
// and Sub.
func epsNat[F native](cnt *profile.Counts) F {
	one, half := F(1), flt[F](0.5)
	e := one
	for i := 0; i < 80; i++ {
		ne := e * half
		cnt.F += 3
		if one+ne-one == 0 {
			return e
		}
		e = ne
	}
	return e
}

// hessenbergEigenNat is hessenbergEigenHooked on the n×n row-major h
// (consumed), writing the eigenvalues into re and im.
func hessenbergEigenNat[F native](cnt *profile.Counts, h []F, n int, re, im []F) {
	half := flt[F](0.5)
	eps := epsNat[F](cnt)
	var ma, fl, br uint64 // see tally

	var anorm F
	for i := 0; i < n; i++ {
		lo := max(i-1, 0)
		for j := lo; j < n; j++ {
			anorm = anorm + absNat(h[i*n+j])
		}
		ma += uint64(n - lo)
		fl += 2 * uint64(n-lo)
	}
	if anorm == 0 {
		tally(cnt, ma, fl, br)
		return
	}

	nn := n - 1
	var t F
	for nn >= 0 {
		its := 0
		var l int
		for {
			for l = nn; l >= 1; l-- {
				s := absNat(h[(l-1)*n+l-1]) + absNat(h[l*n+l])
				if s == 0 {
					s = anorm
				}
				ma += 3
				fl += 5
				br++
				if absNat(h[l*n+l-1]) <= eps*s {
					ma++
					h[l*n+l-1] = 0
					break
				}
			}
			x := h[nn*n+nn]
			ma++
			if l == nn {
				fl++
				re[nn] = x + t
				im[nn] = 0
				nn--
				break
			}
			y := h[(nn-1)*n+nn-1]
			w := h[nn*n+nn-1] * h[(nn-1)*n+nn]
			ma += 3
			fl++
			if l == nn-1 {
				p := half * (y - x)
				q := p*p + w
				z := sqrtNat(absNat(q))
				x = x + t
				fl += 7
				br++
				if 0 <= q {
					br++
					if p < 0 {
						z = -z
						fl++
					}
					z = p + z
					re[nn-1] = x + z
					re[nn] = re[nn-1]
					fl += 2
					if z != 0 {
						re[nn] = x - w/z
						fl += 2
					}
					im[nn-1] = 0
					im[nn] = 0
				} else {
					re[nn-1] = x + p
					re[nn] = x + p
					im[nn-1] = z
					im[nn] = -z
					fl += 3
				}
				nn -= 2
				break
			}
			if its == 60 {
				fl++
				re[nn] = x + t
				im[nn] = 0
				nn--
				break
			}
			if its == 10 || its == 20 {
				t = t + x
				for i := 0; i <= nn; i++ {
					h[i*n+i] = h[i*n+i] - x
				}
				s := absNat(h[nn*n+nn-1]) + absNat(h[(nn-1)*n+nn-2])
				y = flt[F](0.75) * s
				x = y
				w = flt[F](-0.4375) * s * s
				ma += 2*uint64(nn+1) + 2
				fl += 1 + uint64(nn+1) + 3 + 3
			}
			its++
			var m int
			var p, q, r F
			for m = nn - 2; m >= l; m-- {
				z := h[m*n+m]
				rr := x - z
				ss := y - z
				p = (rr*ss-w)/h[(m+1)*n+m] + h[m*n+m+1]
				q = h[(m+1)*n+m+1] - z - rr - ss
				r = h[(m+2)*n+m+1]
				s := absNat(p) + absNat(q) + absNat(r)
				ma += 5
				fl += 2 + 4 + 3 + 5
				if s != 0 {
					p = p / s
					q = q / s
					r = r / s
					fl += 3
				}
				if m == l {
					break
				}
				u := absNat(h[m*n+m-1]) * (absNat(q) + absNat(r))
				v := absNat(p) * (absNat(h[(m-1)*n+m-1]) + absNat(z) + absNat(h[(m+1)*n+m+1]))
				ma += 3
				fl += 5 + 7 + 1
				br++
				if u <= eps*v {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				h[i*n+i-2] = 0
				ma++
				if i != m+2 {
					h[i*n+i-3] = 0
					ma++
				}
			}
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = h[k*n+k-1]
					q = h[(k+1)*n+k-1]
					r = 0
					ma += 2
					if k != nn-1 {
						r = h[(k+2)*n+k-1]
						ma++
					}
					x = absNat(p) + absNat(q) + absNat(r)
					fl += 5
					if x != 0 {
						p = p / x
						q = q / x
						r = r / x
						fl += 3
					}
				}
				s := sqrtNat(p*p + q*q + r*r)
				fl += 6
				br++
				if p < 0 {
					s = -s
					fl++
				}
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						h[k*n+k-1] = -h[k*n+k-1]
						ma += 2
						fl++
					}
				} else {
					h[k*n+k-1] = -s * x
					ma++
					fl += 2
				}
				p = p + s
				x = p / s
				y = q / s
				z := r / s
				q = q / p
				r = r / p
				fl += 6
				// Row modification.
				for j := k; j <= nn; j++ {
					pp := h[k*n+j] + q*h[(k+1)*n+j]
					if k != nn-1 {
						pp = pp + r*h[(k+2)*n+j]
						h[(k+2)*n+j] = h[(k+2)*n+j] - pp*z
					}
					h[(k+1)*n+j] = h[(k+1)*n+j] - pp*y
					h[k*n+j] = h[k*n+j] - pp*x
				}
				rows := uint64(nn - k + 1)
				if k != nn-1 {
					ma += 9 * rows
					fl += 10 * rows
				} else {
					ma += 6 * rows
					fl += 6 * rows
				}
				mmin := nn
				if k+3 < nn {
					mmin = k + 3
				}
				// Column modification.
				for i := l; i <= mmin; i++ {
					pp := x*h[i*n+k] + y*h[i*n+k+1]
					if k != nn-1 {
						pp = pp + z*h[i*n+k+2]
						h[i*n+k+2] = h[i*n+k+2] - pp*r
					}
					h[i*n+k+1] = h[i*n+k+1] - pp*q
					h[i*n+k] = h[i*n+k] - pp
				}
				cols := uint64(mmin - l + 1)
				if k != nn-1 {
					ma += 9 * cols
					fl += 10 * cols
				} else {
					ma += 6 * cols
					fl += 6 * cols
				}
			}
		}
	}
	tally(cnt, ma, fl, br)
}

// hessenbergEigenFast is the native path of HessenbergEigen.
func hessenbergEigenFast[T scalar.Real[T]](h Mat[T]) (Eig[T], bool) {
	if !nativeOf[T]() {
		return Eig[T]{}, false
	}
	n := h.rows
	re := make(Vec[T], n)
	im := make(Vec[T], n)
	var cnt profile.Counts
	switch d := any(h.d).(type) {
	case []scalar.F32:
		hessenbergEigenNat(&cnt, d, n, any([]T(re)).([]scalar.F32), any([]T(im)).([]scalar.F32))
	case []scalar.F64:
		hessenbergEigenNat(&cnt, d, n, any([]T(re)).([]scalar.F64), any([]T(im)).([]scalar.F64))
	}
	profile.AddCounts(cnt)
	return Eig[T]{Re: re, Im: im}, true
}

// hessenbergNat is hessenbergHooked's elimination on the n×n row-major
// h (already the clone), in place.
func hessenbergNat[F native](cnt *profile.Counts, h []F, n int) {
	var ma, fl, br uint64
	for m := 1; m < n-1; m++ {
		var x F
		i0 := m
		for j := m; j < n; j++ {
			ma++
			fl += 2
			br++
			if absNat(x) < absNat(h[j*n+m-1]) {
				ma++
				x = h[j*n+m-1]
				i0 = j
			}
		}
		if i0 != m {
			cnt.M += uint64(4 * n) // SwapRows
			ri := h[i0*n : i0*n+n]
			rm := h[m*n : m*n+n]
			for k := range ri {
				ri[k], rm[k] = rm[k], ri[k]
			}
			for k := 0; k < n; k++ {
				h[k*n+i0], h[k*n+m] = h[k*n+m], h[k*n+i0]
			}
			ma += 4 * uint64(n)
		}
		if x != 0 {
			for i := m + 1; i < n; i++ {
				y := h[i*n+m-1]
				ma++
				if y == 0 {
					continue
				}
				y = y / x
				h[i*n+m-1] = y
				for j := m; j < n; j++ {
					h[i*n+j] = h[i*n+j] - y*h[m*n+j]
				}
				for j := 0; j < n; j++ {
					h[j*n+m] = h[j*n+m] + y*h[j*n+i]
				}
				ma += 1 + 3*uint64(n-m) + 3*uint64(n)
				fl += 1 + 2*uint64(n-m) + 2*uint64(n)
			}
		}
	}
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			h[i*n+j] = 0
		}
		ma += uint64(i - 1)
	}
	tally(cnt, ma, fl, br)
}

// hessenbergFast is the native path of Hessenberg.
func hessenbergFast[T scalar.Real[T]](a Mat[T]) (Mat[T], bool) {
	if !nativeOf[T]() {
		return Mat[T]{}, false
	}
	n := a.rows
	h := a.Clone()
	var cnt profile.Counts
	switch d := any(h.d).(type) {
	case []scalar.F32:
		hessenbergNat(&cnt, d, n)
	case []scalar.F64:
		hessenbergNat(&cnt, d, n)
	}
	profile.AddCounts(cnt)
	return h, true
}

// evalNat is Poly.Eval: one Mul and one Add per coefficient.
func evalNat[F native](cnt *profile.Counts, p []F, x F) F {
	var acc F
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc*x + p[i]
	}
	cnt.F += 2 * uint64(len(p))
	return acc
}

// realRootsNat is the companion-matrix branch of realRootsHooked (degree
// d >= 3) on native floats. dp and the companion, re and im are caller
// scratch: len(dp) = len(p)-1, len(c) = d·d, len(re) = len(im) = d.
func realRootsNat[F native](cnt *profile.Counts, p []F, d int, dp, c, re, im []F) []F {
	one := F(1)
	inv := one / p[d]
	cnt.F++
	for i := 0; i < d; i++ {
		c[i] = -p[d-1-i] * inv
	}
	cnt.F += 2 * uint64(d)
	for i := 1; i < d; i++ {
		c[i*d+i-1] = one
	}
	cnt.M += uint64(2*d - 1)
	cnt.I += uint64(2*d - 1)
	hessenbergEigenNat(cnt, c, d, re, im)
	eps := epsNat[F](cnt)
	var scale F
	for i := range re {
		ar, ai := absNat(re[i]), absNat(im[i])
		inner := ar
		if ar < ai {
			inner = ai
		}
		if scale < inner {
			scale = inner
		}
	}
	cnt.F += 2 * uint64(d)
	cnt.B += 2 * uint64(d)
	big := scale // scalar.Max(scale, one)
	if scale < one {
		big = one
	}
	tol := eps * flt[F](1e5) * big
	cnt.F += 2
	cnt.B++
	for i := 1; i < len(p); i++ {
		dp[i-1] = p[i] * flt[F](float64(i))
	}
	cnt.F += uint64(len(p) - 1)
	var roots []F
	for i := range re {
		cnt.F++
		cnt.B++
		if !(absNat(im[i]) <= tol) {
			continue
		}
		r := re[i]
		for it := 0; it < 3; it++ {
			f := evalNat(cnt, p, r)
			fp := evalNat(cnt, dp, r)
			if fp == 0 {
				break
			}
			r = r - f/fp
			cnt.F += 2
		}
		roots = append(roots, r)
	}
	return roots
}

// realRootsFast is the native path of Poly.RealRoots for degree >= 3.
func realRootsFast[T scalar.Real[T]](p Poly[T], d int) (Vec[T], bool) {
	if !nativeOf[T]() {
		return nil, false
	}
	buf, bh := borrowSlice[T](len(p) - 1 + d*d + 2*d)
	defer bh.put()
	var cnt profile.Counts
	var roots any
	switch pd := any([]T(p)).(type) {
	case []scalar.F32:
		b := any(buf).([]scalar.F32)
		dp, rest := b[:len(p)-1], b[len(p)-1:]
		roots = Vec[scalar.F32](realRootsNat(&cnt, pd, d, dp, rest[:d*d], rest[d*d:d*d+d], rest[d*d+d:]))
	case []scalar.F64:
		b := any(buf).([]scalar.F64)
		dp, rest := b[:len(p)-1], b[len(p)-1:]
		roots = Vec[scalar.F64](realRootsNat(&cnt, pd, d, dp, rest[:d*d], rest[d*d:d*d+d], rest[d*d+d:]))
	}
	profile.AddCounts(cnt)
	return roots.(Vec[T]), true
}

// symEigenNat is symEigenHooked's sweeps, extraction and sort on native
// floats: m (n×n, the clone) and v (the identity) are rotated in place,
// and the descending permutation is written into ws and vs.
func symEigenNat[F native](cnt *profile.Counts, m, v []F, n int, tol F, ws, vs []F) {
	one, two := F(1), F(2)
	var ma, fl, br uint64
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off F
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off = off + absNat(m[i*n+j])
			}
		}
		pairs := uint64(n * (n - 1) / 2)
		ma += pairs
		fl += 2 * pairs
		scale := maxAbsNat(m) // m.MaxAbs: n² Abs and compares, n² loads
		cnt.F += uint64(n * n)
		cnt.B += uint64(n * n)
		cnt.M += uint64(n * n)
		thresh := tol * scale
		fl++
		br++
		if off <= thresh || off == 0 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				ma++
				fl += 2
				br++
				if absNat(apq) <= tol*scale {
					continue
				}
				theta := (m[q*n+q] - m[p*n+p]) / (two * apq)
				ma += 2
				fl += 3
				br++
				var t F
				if theta < 0 {
					t = -one / (-theta + sqrtNat(one+theta*theta))
					fl += 7
				} else {
					t = one / (theta + sqrtNat(one+theta*theta))
					fl += 5
				}
				c := one / sqrtNat(one+t*t)
				s := c * t
				fl += 5
				for k := 0; k < n; k++ {
					mkp, mkq := m[k*n+p], m[k*n+q]
					m[k*n+p] = c*mkp - s*mkq
					m[k*n+q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = c*mpk - s*mqk
					m[q*n+k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
				ma += 12 * uint64(n)
				fl += 18 * uint64(n)
			}
		}
	}

	w, wh := borrowSlice[F](n)
	defer wh.put()
	for i := 0; i < n; i++ {
		w[i] = m[i*n+i]
	}
	ma += uint64(n)
	idx, idxh := borrowSlice[int](n)
	defer idxh.put()
	for i := range idx {
		idx[i] = i
	}
	var cmps uint64
	sort.SliceStable(idx, func(x, y int) bool {
		cmps++
		return w[idx[y]] < w[idx[x]]
	})
	br += cmps
	for newJ, oldJ := range idx {
		ws[newJ] = w[oldJ]
		for i := 0; i < n; i++ {
			vs[i*n+newJ] = v[i*n+oldJ]
		}
	}
	ma += 2 * uint64(n*n)
	tally(cnt, ma, fl, br)
}

// symEigenFast is the native path of SymEigen.
func symEigenFast[T scalar.Real[T]](a Mat[T]) (SymEigResult[T], bool) {
	if !nativeOf[T]() {
		return SymEigResult[T]{}, false
	}
	n := a.rows
	m := a.Clone()
	ws := make(Vec[T], n)
	vs := Zeros[T](n, n)
	vbuf, vh := borrowSlice[T](n * n)
	defer vh.put()
	var cnt profile.Counts
	cnt.M += uint64(n) // Identity: one Set per diagonal element
	cnt.I += uint64(n)
	switch md := any(m.d).(type) {
	case []scalar.F32:
		v := any(vbuf).([]scalar.F32)
		for i := 0; i < n; i++ {
			v[i*n+i] = 1
		}
		tol := epsNat[scalar.F32](&cnt) * flt[scalar.F32](8)
		cnt.F++
		symEigenNat(&cnt, md, v, n, tol, any([]T(ws)).([]scalar.F32), any(vs.d).([]scalar.F32))
	case []scalar.F64:
		v := any(vbuf).([]scalar.F64)
		for i := 0; i < n; i++ {
			v[i*n+i] = 1
		}
		tol := epsNat[scalar.F64](&cnt) * flt[scalar.F64](8)
		cnt.F++
		symEigenNat(&cnt, md, v, n, tol, any([]T(ws)).([]scalar.F64), any(vs.d).([]scalar.F64))
	}
	profile.AddCounts(cnt)
	return SymEigResult[T]{W: ws, V: vs}, true
}
