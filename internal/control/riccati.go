package control

import "repro/internal/mat"

// riccatiTol is the fixed-point test of the Riccati iteration: it stops
// once no element of P moves by 1e-12 or more in one step.
const riccatiTol = 1e-12

// riccati iterates the discrete algebraic Riccati equation
//
//	K  = (R + BᵀPB)⁻¹·BᵀPA
//	P' = Q + AᵀP·(A − BK)
//
// from P = Q until max|P' − P| < riccatiTol or maxIter steps, and
// returns the last step's gain K (m×n) and P' (n×n) as float64 rows. A
// singular R + BᵀPB returns mat.ErrSingular.
//
// K and P feed the measured kernels, so they must keep every bit that
// mat.Mat[scalar.F64] arithmetic gives them: each product sums in mat's
// row-by-column order, the inverse is mat's partially pivoted LU then
// one substitution per identity column, and the stopping test is mat's
// MaxAbs. TestRiccatiMatchesMatLoop* hold it to that loop. It runs on
// flat scratch allocated once per call and charges no profiler counts,
// which is exact because kernels call it from Setup, and no session
// profiles Setup. For FlyModel(0.002) the iteration never meets the
// tolerance, so every call runs to its cap.
func riccati(a, b, q, r [][]float64, maxIter int) (k, p [][]float64, err error) {
	n, m := len(a), len(b[0])
	nn, mn, mm := n*n, m*n, m*m
	buf := make([]float64, 7*nn+5*mn+4*mm+m)
	take := func(size int) []float64 {
		s := buf[:size:size]
		buf = buf[size:]
		return s
	}
	fa, at, fq := take(nn), take(nn), take(nn)
	pc, pn, atp, amBK := take(nn), take(nn), take(nn), take(nn)
	fb, bt, btp, sbtp, kc := take(mn), take(mn), take(mn), take(mn), take(mn)
	fr, s, lu, sinv := take(mm), take(mm), take(mm), take(mm)
	x := take(m)
	piv := make([]int, m)

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fa[i*n+j] = a[i][j]
			at[j*n+i] = a[i][j]
			fq[i*n+j] = q[i][j]
		}
		for j := 0; j < m; j++ {
			fb[i*m+j] = b[i][j]
			bt[j*n+i] = b[i][j]
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			fr[i*m+j] = r[i][j]
		}
	}
	copy(pc, fq)

	for it := 0; it < maxIter; it++ {
		// K = (R + Bᵀ·P·B)⁻¹·Bᵀ·P·A
		mulF64(bt, pc, btp, m, n, n)
		mulF64(btp, fb, s, m, n, m)
		for i := range s {
			s[i] = s[i] + fr[i]
		}
		copy(lu, s)
		if !luF64(lu, m, piv) {
			return nil, nil, mat.ErrSingular
		}
		for j := 0; j < m; j++ {
			for i := range x {
				x[i] = 0
			}
			x[j] = 1
			luSolveF64(lu, m, piv, x)
			for i := 0; i < m; i++ {
				sinv[i*m+j] = x[i]
			}
		}
		mulF64(sinv, btp, sbtp, m, m, n)
		mulF64(sbtp, fa, kc, m, n, n)
		// P' = Q + Aᵀ·P·(A − B·K)
		mulF64(at, pc, atp, n, n, n)
		mulF64(fb, kc, amBK, n, m, n)
		for i := range amBK {
			amBK[i] = fa[i] - amBK[i]
		}
		mulF64(atp, amBK, pn, n, n, n)
		var diff float64 // mat's MaxAbs of P' − P
		for i := range pn {
			pn[i] = fq[i] + pn[i]
			v := pn[i] - pc[i]
			if v < 0 {
				v = -v
			}
			if diff < v {
				diff = v
			}
		}
		pc, pn = pn, pc
		if diff < riccatiTol {
			break
		}
	}
	return rowsOf(kc, m, n), rowsOf(pc, n, n), nil
}

// mulF64 is mat's r×k · k×c product: out[i][j] accumulates
// a[i][kk]·b[kk][j] for kk ascending, starting from zero.
func mulF64(a, b, out []float64, r, k, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			var acc float64
			for kk := 0; kk < k; kk++ {
				acc = acc + a[i*k+kk]*b[kk*c+j]
			}
			out[i*c+j] = acc
		}
	}
}

// luF64 is mat's partially pivoted LU of the n×n matrix d, in place:
// the first largest |d[i][k]| at or below the diagonal becomes the
// pivot. It reports false on a zero pivot.
func luF64(d []float64, n int, piv []int) bool {
	for k := 0; k < n; k++ {
		p := k
		best := d[k*n+k]
		if best < 0 {
			best = -best
		}
		for i := k + 1; i < n; i++ {
			v := d[i*n+k]
			if v < 0 {
				v = -v
			}
			if best < v {
				best, p = v, i
			}
		}
		piv[k] = p
		if p != k {
			ri := d[p*n : p*n+n]
			rk := d[k*n : k*n+n]
			for t := range ri {
				ri[t], rk[t] = rk[t], ri[t]
			}
		}
		pv := d[k*n+k]
		if pv == 0 {
			return false
		}
		for i := k + 1; i < n; i++ {
			f := d[i*n+k] / pv
			d[i*n+k] = f
			for j := k + 1; j < n; j++ {
				d[i*n+j] = d[i*n+j] - f*d[k*n+j]
			}
		}
	}
	return true
}

// luSolveF64 is mat's LU solve, overwriting x (the right-hand side) with
// the solution: row permutation, unit-lower forward substitution, then
// back substitution.
func luSolveF64(lu []float64, n int, piv []int, x []float64) {
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for i := 1; i < n; i++ {
		acc := x[i]
		for j := 0; j < i; j++ {
			acc = acc - lu[i*n+j]*x[j]
		}
		x[i] = acc
	}
	for i := n - 1; i >= 0; i-- {
		acc := x[i]
		for j := i + 1; j < n; j++ {
			acc = acc - lu[i*n+j]*x[j]
		}
		x[i] = acc / lu[i*n+i]
	}
}

// rowsOf copies a row-major r×c slice out as float64 rows.
func rowsOf(d []float64, r, c int) [][]float64 {
	out := make([][]float64, r)
	for i := range out {
		out[i] = append([]float64(nil), d[i*c:(i+1)*c]...)
	}
	return out
}
