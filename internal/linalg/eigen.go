package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix:
// A = V · diag(Values) · Vᵀ, eigenvalues descending, eigenvectors as
// the *columns* of Vectors — all n of them from SymEigen, the leading
// k from TopEigen.
type Eigen struct {
	Values  []float64
	Vectors *Mat
}

const (
	// eigenTol is the relative stopping test: sweeps stop once the
	// off-diagonal mass is below eigenTol·‖A‖_F. Jacobi converges
	// quadratically, so the last sweep usually lands far below it.
	eigenTol = 1e-15
	// maxSweeps caps the cyclic sweeps. BookCrossing's Focus matrices
	// take 3 to 16 and the 1e-6…1e6 test spectrum 19, so reaching the
	// cap means the input is broken.
	maxSweeps = 64
)

// SymEigen computes the eigendecomposition of a symmetric matrix with
// the cyclic Jacobi rotation method: slow (a full n×n eigenvector
// matrix, several sweeps of n²/2 rotations) but simple and accurate,
// it is the reference that TopEigen and the LDA fit are tested
// against, and has no caller outside tests. It errors on non-square,
// asymmetric (beyond 1e-8) or non-finite input, and when the sweeps
// fail to bring the off-diagonal mass below 1e-15·‖A‖_F within the
// sweep cap, instead of returning unconverged values.
func SymEigen(a *Mat) (*Eigen, error) {
	eig, _, err := jacobi(a)
	return eig, err
}

// jacobi is SymEigen that also reports the number of sweeps it ran.
func jacobi(a *Mat) (*Eigen, int, error) {
	if err := checkSymmetric(a); err != nil {
		return nil, 0, err
	}
	norm2 := 0.0
	for _, x := range a.Data {
		norm2 += x * x
	}
	n := a.Rows
	m := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j], m.Data[j*n+i] = x, x
		}
	}
	v := Identity(n)
	limit := eigenTol * eigenTol * norm2

	sweeps := 0
	for ; ; sweeps++ {
		off := 0.0 // squared Frobenius norm of the off-diagonal part
		for i := 0; i < n; i++ {
			for _, x := range m.Data[i*n+i+1 : (i+1)*n] {
				off += 2 * x * x
			}
		}
		if off <= limit {
			break
		}
		if sweeps == maxSweeps {
			return nil, sweeps, fmt.Errorf("linalg: Jacobi did not converge in %d sweeps (off-diagonal %.3g, ‖A‖_F %.3g)",
				maxSweeps, math.Sqrt(off), math.Sqrt(norm2))
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if m.Data[p*n+q] != 0 {
					rotate(m, v, p, q)
				}
			}
		}
	}

	eig := &Eigen{Values: make([]float64, n), Vectors: NewMat(n, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return m.At(order[x], order[x]) > m.At(order[y], order[y])
	})
	for outCol, srcCol := range order {
		eig.Values[outCol] = m.At(srcCol, srcCol)
		for r := 0; r < n; r++ {
			eig.Vectors.Set(r, outCol, v.At(r, srcCol))
		}
	}
	return eig, sweeps, nil
}

// rotate applies the Jacobi rotation that zeroes m[p][q] as
// m ← JᵀmJ, v ← vJ, keeping m exactly symmetric. The pivot entry is
// set to zero rather than computed, so rounding never leaves an
// off-diagonal floor that a relative stopping test could not pass.
func rotate(m, v *Mat, p, q int) {
	n := m.Rows
	d := m.Data
	apq := d[p*n+q]
	theta := (d[q*n+q] - d[p*n+p]) / (2 * apq)
	t := math.Copysign(1, theta) / (math.Abs(theta) + math.Hypot(theta, 1))
	c := 1 / math.Sqrt(t*t+1)
	s := t * c
	d[p*n+p] -= t * apq
	d[q*n+q] += t * apq
	d[p*n+q], d[q*n+p] = 0, 0
	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		mkp, mkq := d[k*n+p], d[k*n+q]
		np, nq := c*mkp-s*mkq, s*mkp+c*mkq
		d[k*n+p], d[p*n+k] = np, np
		d[k*n+q], d[q*n+k] = nq, nq
	}
	vd := v.Data
	for k := 0; k < n; k++ {
		vkp, vkq := vd[k*n+p], vd[k*n+q]
		vd[k*n+p] = c*vkp - s*vkq
		vd[k*n+q] = s*vkp + c*vkq
	}
}
