package linalg

import (
	"fmt"
	"math"
)

// Cholesky factors a symmetric positive-definite matrix as A = L·Lᵀ
// and returns the lower-triangular L. Only A's lower triangle is read.
// It errors when a pivot is not positive and finite, i.e. when A is
// not numerically positive definite.
func Cholesky(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		li := l.Data[i*n : i*n+i+1]
		for j := 0; j <= i; j++ {
			lj := l.Data[j*n : j*n+j]
			s := a.Data[i*n+j]
			for k, x := range lj {
				s -= li[k] * x
			}
			if j < i {
				li[j] = s / l.Data[j*n+j]
				continue
			}
			if !(s > 0) || math.IsInf(s, 0) {
				return nil, fmt.Errorf("linalg: Cholesky pivot %d is %g: matrix not positive definite", i, s)
			}
			li[i] = math.Sqrt(s)
		}
	}
	return l, nil
}

// SolveLower overwrites b with the solution x of L·x = b for the
// lower-triangular L that Cholesky returns (forward substitution).
func SolveLower(l *Mat, b []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		s := b[i]
		for k, x := range l.Data[i*n : i*n+i] {
			s -= x * b[k]
		}
		b[i] = s / l.Data[i*n+i]
	}
}

// SolveLowerT overwrites b with the solution x of Lᵀ·x = b for the
// lower-triangular L that Cholesky returns (back substitution).
func SolveLowerT(l *Mat, b []float64) {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		b[i] /= l.Data[i*n+i]
		bi := b[i]
		for k, x := range l.Data[i*n : i*n+i] {
			b[k] -= x * bi
		}
	}
}
