package linalg

import (
	"fmt"
	"math"
	"sort"
)

// qlIterPerValue caps implicit QL at qlIterPerValue·n iterations in
// all, LAPACK's dsteqr limit. Each eigenvalue takes one to three, so
// reaching the cap means the input is broken.
const qlIterPerValue = 30

// TopEigen computes every eigenvalue of a symmetric matrix, in
// descending order, and the eigenvectors of the k largest as the
// columns of Vectors (n×min(k, n)). It reduces A to tridiagonal form
// by Householder reflections and diagonalizes that by implicit-shift
// QL (EISPACK tred2/tql2), but builds only the k eigenvectors asked
// for: the QL rotations are replayed on k unit vectors and the
// reflectors applied to the result, so neither the Householder nor the
// QL transformation is ever formed as a matrix. Input checks match
// SymEigen: non-square, asymmetric (beyond 1e-8) or non-finite input
// is an error, and so is QL failing to converge within the iteration
// cap, instead of returning unconverged values.
func TopEigen(a *Mat, k int) (*Eigen, error) {
	return topEigen(a, k, qlIterPerValue*a.Rows)
}

// topEigen is TopEigen with the QL iteration cap as a parameter.
func topEigen(a *Mat, k, maxIter int) (*Eigen, error) {
	if err := checkSymmetric(a); err != nil {
		return nil, err
	}
	n := a.Rows
	k = max(0, min(k, n))
	eig := &Eigen{Values: make([]float64, n), Vectors: NewMat(n, k)}
	// Scale by a power of two so the largest entry lies in [0.5, 1):
	// exact, and no intermediate can overflow, nor a matrix of tiny
	// entries underflow as a whole.
	peak := 0.0
	for _, x := range a.Data {
		peak = math.Max(peak, math.Abs(x))
	}
	if peak == 0 {
		for j := 0; j < k; j++ {
			eig.Vectors.Set(j, j, 1)
		}
		return eig, nil
	}
	_, exp := math.Frexp(peak)

	// The lower triangle of the scaled, then symmetrized, copy.
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			w[i*n+j] = (math.Ldexp(a.Data[i*n+j], -exp) + math.Ldexp(a.Data[j*n+i], -exp)) / 2
		}
	}
	d, e, h := tridiagonalize(w, n)
	rot, span, err := tql(d, e, maxIter)
	if err != nil {
		return nil, err
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return d[order[x]] > d[order[y]] })
	for i, src := range order {
		v := math.Ldexp(d[src], exp)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("linalg: eigenvalue out of range (%g)", v)
		}
		eig.Values[i] = v
	}

	// The eigenvectors of T are the columns of G₁⋯G_M for QL's
	// rotations G; apply them, last first, to the unit vectors.
	ys := make([]float64, k*n)
	for j := 0; j < k; j++ {
		ys[j*n+order[j]] = 1
	}
	pos := len(rot)
	for s := len(span) - 2; s >= 0; s -= 2 {
		// One iteration recorded i = m−1 down to l.
		for i := span[s]; i < span[s+1]; i++ {
			pos -= 2
			c, sn := rot[pos], rot[pos+1]
			for y := ys; len(y) > 0; y = y[n:] {
				yi, yj := y[i], y[i+1]
				y[i] = c*yi + sn*yj
				y[i+1] = c*yj - sn*yi
			}
		}
	}
	// Then A's eigenvectors are Q·y = H₀(H₁(⋯H_{n−3}·y)).
	for r := n - 3; r >= 0; r-- {
		if h[r] == 0 {
			continue
		}
		v := w[r*n+r+1 : (r+1)*n]
		for y := ys; len(y) > 0; y = y[n:] {
			tail := y[r+1:]
			t := dot(v, tail) / h[r]
			for i, x := range v {
				tail[i] -= t * x
			}
		}
	}
	for j := 0; j < k; j++ {
		for i, x := range ys[j*n : (j+1)*n] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("linalg: non-finite eigenvector")
			}
			eig.Vectors.Data[i*k+j] = x
		}
	}
	return eig, nil
}

// tridiagonalize reduces the symmetric matrix whose lower triangle is
// in w (n×n, row-major) to T = Qᵀ·A·Q with Q = H₀·H₁⋯H_{n−3}, and
// returns T's diagonal d and subdiagonal e (e[i] = T[i+1][i], e[n−1]
// = 0). Reflector H_r = I − v·vᵀ/h[r] acts on indices r+1…n−1 and
// keeps v in w's upper row r; h[r] = 0 marks an identity. Only the
// lower triangle of the trailing block is updated, (4/3)·n³ flops.
func tridiagonalize(w []float64, n int) (d, e, h []float64) {
	d, e, h = make([]float64, n), make([]float64, n), make([]float64, n)
	buf := make([]float64, n)
	for r := 0; r < n-2; r++ {
		d[r] = w[r*n+r]
		// x = column r below the diagonal, copied into row r and
		// divided by its 1-norm (as in tred2), so that the reflector
		// is exactly as accurate for tiny columns as for large ones.
		v := w[r*n+r+1 : (r+1)*n]
		m := len(v)
		norm1 := 0.0
		for i := range v {
			v[i] = w[(r+1+i)*n+r]
			norm1 += math.Abs(v[i])
		}
		tail := 0.0
		if norm1 > 0 {
			for i := range v {
				v[i] /= norm1
				if i > 0 {
					tail += v[i] * v[i]
				}
			}
		}
		x0 := v[0]
		if tail == 0 {
			e[r] = x0 * norm1
			continue
		}
		sigma := x0*x0 + tail
		g := -math.Copysign(math.Sqrt(sigma), x0)
		hr := sigma - x0*g // vᵀv/2 for v = x − g·e₁
		v[0] = x0 - g
		e[r], h[r] = g*norm1, hr

		// H·A'·H = A' − v·qᵀ − q·vᵀ for the trailing block A', with
		// p = A'·v/h and q = p − (vᵀp/2h)·v, both built in q.
		q := buf[:m]
		clear(q)
		for i := 0; i < m; i++ {
			base := (r+1+i)*n + r + 1
			row := w[base : base+i]
			vi := v[i]
			s := w[base+i] * vi
			for j, x := range row {
				s += x * v[j]
				q[j] += x * vi
			}
			q[i] += s
		}
		vp := 0.0
		for i := range q {
			q[i] /= hr
			vp += v[i] * q[i]
		}
		kk := vp / (2 * hr)
		for i := range q {
			q[i] -= kk * v[i]
		}
		for i := 0; i < m; i++ {
			base := (r+1+i)*n + r + 1
			row := w[base : base+i+1]
			vi, qi := v[i], q[i]
			for j := range row {
				row[j] -= vi*q[j] + qi*v[j]
			}
		}
	}
	if n >= 2 {
		d[n-2] = w[(n-2)*n+n-2]
		e[n-2] = w[(n-1)*n+n-2]
	}
	d[n-1] = w[n*n-1]
	return d, e, h
}

// tql diagonalizes the symmetric tridiagonal (d, e) by implicit-shift
// QL (EISPACK tql2), leaving the eigenvalues, unsorted, in d. It
// returns the plane rotations instead of accumulating them: rot holds
// (c, s) pairs in the order applied, and span an (l, m) pair per
// iteration, whose m−l rotations act on planes (i, i+1) for i = m−1
// down to l. It errors when the iterations exceed maxIter.
func tql(d, e []float64, maxIter int) (rot []float64, span []int, err error) {
	n := len(d)
	const eps = 0x1p-52
	// Off-diagonals are negligible below eps·‖T‖. tql2 takes the
	// norm over the rows reached so far; the whole matrix's keeps QL
	// off blocks far below ‖T‖, where rotations built from subnormal
	// entries would not be orthogonal.
	tst1 := 0.0
	for i, x := range d {
		tst1 = math.Max(tst1, math.Abs(x)+math.Abs(e[i]))
	}
	// QL takes about 1.15·n² rotations on the Focus view's matrices.
	rot = make([]float64, 0, 5*n*n/2)
	f, iters := 0.0, 0
	for l := 0; l < n; l++ {
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for m > l {
			if iters == maxIter {
				return nil, nil, fmt.Errorf("linalg: QL did not converge in %d iterations", maxIter)
			}
			iters++
			span = append(span, l, m)

			// Implicit shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Copysign(math.Hypot(p, 1), p)
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				rot = append(rot, c, s)
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return rot, span, nil
}

// checkSymmetric rejects what no symmetric eigensolver accepts:
// non-square, non-finite or asymmetric (beyond 1e-8) input.
func checkSymmetric(a *Mat) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: eigen of non-square %dx%d", a.Rows, a.Cols)
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linalg: eigen of non-finite matrix")
		}
	}
	if !a.IsSymmetric(1e-8) {
		return fmt.Errorf("linalg: eigen of asymmetric matrix")
	}
	return nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}
