// Package linalg provides the small dense-matrix kernel behind the
// Focus view's Linear Discriminant Analysis (§II-B "Granular
// Analysis"): a row-major matrix, a Cholesky factorization with its
// triangular solves, and TopEigen, the symmetric eigensolver
// (Householder tridiagonalization and implicit QL) that returns every
// eigenvalue but only the leading eigenvectors. A cyclic Jacobi
// eigendecomposition (SymEigen) and dense column means and covariance
// are the independent references that the tests check TopEigen and
// the LDA fit against. Dimensions are the number of mining terms (tens
// to low hundreds), the number of focused members, or the number of
// LDA classes, so dense algorithms are the right tool.
package linalg

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero matrix of the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share one length).
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Identity returns the n×n identity.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// IsSymmetric reports approximate symmetry within tol.
func (m *Mat) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}
