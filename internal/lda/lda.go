// Package lda implements multi-class Linear Discriminant Analysis [8],
// the dimensionality-reduction method of the Focus view (§II-B
// "Granular Analysis"): members of a focused group are projected to 2D
// such that users with similar profiles appear close together, with
// class separation driven by a chosen demographic attribute.
//
// Method. The axes are the top generalized eigenvectors of
// S_b·w = λ·(S_w + ridge·I)·w over z-scored features, the maximizers
// of the Fisher criterion. Members' term vectors are sparse, so one
// scan of the dense input collects each row's nonzeros and the column
// means, and drops the constant columns: every member carries its
// group's own terms, and each axis is zero on a constant column. The
// raw second moment Σ x·xᵀ is accumulated over nonzeros only, and S_w
// and S_b follow from it minus class-mean outer products, with the
// standardization folded in as D⁻¹·S·D⁻¹ instead of a standardized
// copy of the data. With the Cholesky factor S_w + ridge·I = L·Lᵀ and
// S_b = B·Bᵀ, where B's c columns are √n_c·D⁻¹(μ_c − μ), the problem
// shrinks to the c×c matrix MᵀM with M = L⁻¹·B: its eigenpairs (λ, u)
// give the axes w ∝ L⁻ᵀ·M·u and the nonzero eigenvalues of S_w⁻¹·S_b
// that ExplainedRatio is made of. Points are sparse dot products.
//
// Rank 1. S_b has rank at most c−1, so two classes (e.g. gender)
// yield a single discriminant. The second axis is then the leading
// principal direction of the standardized data orthogonal to the
// first, so members still spread out within their class.
//
// PCA fallback. A single-class group (and the rare fit where S_w is
// not positive definite even after the ridge, or every class has the
// same mean) is projected onto its top two principal components,
// taken from the smaller of the d×d covariance and the n×n Gram
// matrix of the standardized rows.
//
// Cost, for n members, d varying features, t nonzeros per member and
// c classes: one pass over the dense input, O(n·t²) for the moment,
// O(c·d²) for the scatters and the triangular solves, d³/6 for the
// Cholesky factor and a c×c eigenproblem. The PCA fallback pays a
// symmetric eigenproblem of size s = min(n, d) that returns only the
// two axes the view draws: (4/3)·s³ for the Householder reduction and
// O(s²) for QL and the two eigenvectors (linalg.TopEigen).
package lda

import (
	"fmt"
	"math"

	"vexus/internal/linalg"
)

// Result is a fitted projection.
type Result struct {
	// Points[i] is the 2D embedding of input row i.
	Points [][2]float64
	// Axes are the projection directions (rows of 2×d), unit vectors in
	// the standardized feature space.
	Axes *linalg.Mat
	// Method is "lda" or "pca" (the fallback actually used).
	Method string
	// ExplainedRatio estimates how much discriminative (or variance,
	// for PCA) mass the two axes carry.
	ExplainedRatio float64
}

// Config tunes the projection.
type Config struct {
	// Ridge is added to S_w's diagonal for invertibility (0 = 1e-6).
	Ridge float64
	// Standardize z-scores features before fitting, so binary term
	// indicators and count features mix sanely.
	Standardize bool
}

// DefaultConfig standardizes with a small ridge.
func DefaultConfig() Config { return Config{Ridge: 1e-6, Standardize: true} }

// rankTol is the eigenvalue ratio λ₂/λ₁ below which the between-class
// scatter counts as rank 1. Two classes give a λ₂ of pure rounding,
// many orders of magnitude below it.
const rankTol = 1e-12

// Project fits LDA on x (observations × features) with integer class
// labels and returns the 2D embedding. Falls back to PCA when classes
// are degenerate (< 2 distinct labels) and returns an error only on
// structurally unusable input (no rows, label length mismatch) or
// non-finite values.
func Project(x *linalg.Mat, labels []int, cfg Config) (*Result, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, fmt.Errorf("lda: empty input %dx%d", x.Rows, x.Cols)
	}
	if len(labels) != x.Rows {
		return nil, fmt.Errorf("lda: %d labels for %d rows", len(labels), x.Rows)
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-6
	}
	p := scan(x, labels, cfg.Standardize)
	if len(p.size) >= 2 {
		if res, ok := p.fitLDA(cfg.Ridge); ok {
			return res, nil
		}
	}
	axes, values, err := p.principal(2, nil)
	if err != nil {
		return nil, fmt.Errorf("lda: %w", err)
	}
	return p.result(axes, values, "pca"), nil
}

// problem is the input in the form every fit reads: each row's
// nonzeros, the standardization, and the class partition. Constant
// columns are dropped: standardized they are all zeros, so every axis
// is zero on them, and a focused group's members share many terms.
type problem struct {
	// n rows; d of the input's full columns vary, at indices cols.
	n, d, full int
	cols       []int
	// Row i's nonzeros are at columns idx[start[i]:start[i+1]] with
	// values val[start[i]:start[i+1]], columns ascending.
	start []int
	idx   []int
	val   []float64
	// mean holds the column means; scale the factors 1/sd of the
	// standardization D⁻¹ (all 1 without it); center what the
	// embedding subtracts before scaling (the means, or nil without
	// standardization).
	mean, scale, center []float64
	// Classes are numbered by first appearance: size counts each
	// class's rows and sum holds its column sums (c×d).
	size []int
	sum  []float64
}

// scan reads the dense input once for its nonzeros and class sums,
// drops the constant columns, and derives the standardization from
// the nonzeros.
func scan(x *linalg.Mat, labels []int, standardize bool) *problem {
	n, full := x.Rows, x.Cols
	p := &problem{n: n, full: full, start: make([]int, n+1)}
	nnz := make([]int, full)
	first := make([]float64, full) // a column's first nonzero value
	varies := make([]bool, full)   // its nonzeros are not all equal
	var sums []float64             // class×full column sums
	ids := map[int]int{}
	for i, l := range labels {
		c, ok := ids[l]
		if !ok {
			c = len(p.size)
			ids[l] = c
			p.size = append(p.size, 0)
			sums = append(sums, make([]float64, full)...)
		}
		p.size[c]++
		sum := sums[c*full : (c+1)*full]
		for j, v := range x.Data[i*full : (i+1)*full] {
			if v == 0 {
				continue
			}
			if nnz[j] == 0 {
				first[j] = v
			} else if v != first[j] {
				varies[j] = true
			}
			nnz[j]++
			p.idx = append(p.idx, j)
			p.val = append(p.val, v)
			sum[j] += v
		}
		p.start[i+1] = len(p.idx)
	}

	// Renumber the non-constant columns and compact the nonzeros.
	col := make([]int, full)
	for j := range col {
		col[j] = -1
		if nnz[j] > 0 && (nnz[j] < n || varies[j]) {
			col[j] = len(p.cols)
			p.cols = append(p.cols, j)
		}
	}
	d := len(p.cols)
	p.d = d
	kept, from := 0, 0
	for i := 0; i < n; i++ {
		for e := from; e < p.start[i+1]; e++ {
			if k := col[p.idx[e]]; k >= 0 {
				p.idx[kept], p.val[kept] = k, p.val[e]
				kept++
			}
		}
		from = p.start[i+1]
		p.start[i+1] = kept
	}
	p.idx, p.val = p.idx[:kept], p.val[:kept]
	p.sum = make([]float64, len(p.size)*d)
	p.mean = make([]float64, d)
	for c := range p.size {
		for k, j := range p.cols {
			p.sum[c*d+k] = sums[c*full+j]
			p.mean[k] += sums[c*full+j]
		}
	}
	for k := range p.mean {
		p.mean[k] /= float64(n)
	}

	p.scale = make([]float64, d)
	for k := range p.scale {
		p.scale[k] = 1
	}
	if !standardize {
		return p
	}
	p.center = p.mean
	// Σ (x−m)² over every row: the nonzeros' terms plus m² for each
	// of the column's zeros.
	sq := make([]float64, d)
	for e, k := range p.idx {
		dv := p.val[e] - p.mean[k]
		sq[k] += dv * dv
	}
	for k, j := range p.cols {
		sq[k] += float64(n-nnz[j]) * p.mean[k] * p.mean[k]
		if sd := math.Sqrt(sq[k] / float64(n)); sd >= 1e-12 {
			p.scale[k] = 1 / sd
		}
	}
	return p
}

// moment returns the lower triangle of the raw second moment Σ x·xᵀ
// (d×d, row-major), accumulated over each row's nonzeros.
func (p *problem) moment() []float64 {
	d := p.d
	s := make([]float64, d*d)
	for i := 0; i < p.n; i++ {
		idx, val := p.idx[p.start[i]:p.start[i+1]], p.val[p.start[i]:p.start[i+1]]
		for a, ja := range idx {
			va := val[a]
			row := s[ja*d:]
			for b, jb := range idx[:a+1] {
				row[jb] += va * val[b]
			}
		}
	}
	return s
}

// fitLDA solves S_b·w = λ·(S_w + ridge·I)·w through the c×c matrix
// MᵀM (see the package comment). It reports false when the fit is
// degenerate — S_w + ridge·I not positive definite, or no between-class
// scatter at all — and the caller falls back to PCA.
func (p *problem) fitLDA(ridge float64) (*Result, bool) {
	d, nc := p.d, len(p.size)

	// S_w = Σ x·xᵀ − Σ_c s_c·s_cᵀ/n_c, standardized and ridged.
	sw := linalg.NewMat(d, d)
	s := p.moment()
	for a := 0; a < d; a++ {
		for b := 0; b <= a; b++ {
			v := s[a*d+b]
			for c, n := range p.size {
				v -= p.sum[c*d+a] * p.sum[c*d+b] / float64(n)
			}
			sw.Data[a*d+b] = v * p.scale[a] * p.scale[b]
		}
		sw.Data[a*d+a] += ridge
	}
	l, err := linalg.Cholesky(sw)
	if err != nil {
		return nil, false
	}

	// M = L⁻¹·B, one column per class.
	m := make([][]float64, nc)
	for c, n := range p.size {
		col := make([]float64, d)
		w := math.Sqrt(float64(n))
		for j := range col {
			col[j] = w * p.scale[j] * (p.sum[c*d+j]/float64(n) - p.mean[j])
		}
		linalg.SolveLower(l, col)
		m[c] = col
	}
	g := linalg.NewMat(nc, nc)
	for a := 0; a < nc; a++ {
		for b := 0; b <= a; b++ {
			g.Set(a, b, dot(m[a], m[b]))
			g.Set(b, a, g.At(a, b))
		}
	}
	eig, err := linalg.TopEigen(g, 2)
	if err != nil || !(eig.Values[0] > 0) {
		return nil, false
	}

	axes := make([][]float64, 0, 2)
	for k := 0; k < 2; k++ {
		if k > 0 && !(eig.Values[k] > rankTol*eig.Values[0]) {
			break
		}
		w := make([]float64, d)
		for c := range m {
			axpy(eig.Vectors.At(c, k), m[c], w)
		}
		linalg.SolveLowerT(l, w)
		normalize(w)
		axes = append(axes, w)
	}
	if len(axes) == 1 {
		second, _, err := p.principal(1, axes[0])
		if err != nil {
			return nil, false
		}
		axes = append(axes, second[0])
	}
	return p.result(axes, eig.Values, "lda"), true
}

// principal returns the top k principal directions of the
// standardized data (unit vectors, or zero where the data has no
// variance left) and the eigenvalues of its scatter. A non-nil deflate
// (a unit vector) is projected out of the data first, so the
// directions are orthogonal to it. The eigenproblem is the smaller of
// the n×n Gram matrix and the d×d scatter, solved by linalg.TopEigen
// for all eigenvalues and only the top k eigenvectors.
func (p *problem) principal(k int, deflate []float64) ([][]float64, []float64, error) {
	n, d := p.n, p.d
	if n < d {
		// The Gram matrix of the centered standardized rows
		// z_i = D⁻¹(x_i − m), deflated: with P = I − w·wᵀ the rows of
		// Z·P are z_i minus their component along w, and the right
		// singular vectors of Z·P, (Z·P)ᵀ·u, are the directions.
		z := make([]float64, n*d)
		for i := 0; i < n; i++ {
			zi := z[i*d : (i+1)*d]
			for a := range zi {
				zi[a] = -p.mean[a] * p.scale[a]
			}
			for e := p.start[i]; e < p.start[i+1]; e++ {
				a := p.idx[e]
				zi[a] = (p.val[e] - p.mean[a]) * p.scale[a]
			}
			if deflate != nil {
				axpy(-dot(zi, deflate), deflate, zi)
			}
		}
		g := linalg.NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := dot(z[i*d:(i+1)*d], z[j*d:(j+1)*d])
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		eig, err := linalg.TopEigen(g, k)
		if err != nil {
			return nil, nil, err
		}
		axes := make([][]float64, k)
		for a := range axes {
			axes[a] = make([]float64, d)
			if a >= n {
				continue // fewer members than axes: nothing left to span
			}
			for i := 0; i < n; i++ {
				axpy(eig.Vectors.At(i, a), z[i*d:(i+1)*d], axes[a])
			}
			normalize(axes[a])
		}
		return axes, eig.Values, nil
	}

	// Total scatter D⁻¹(Σ x·xᵀ − n·m·mᵀ)D⁻¹.
	s := p.moment()
	c := linalg.NewMat(d, d)
	for a := 0; a < d; a++ {
		for b := 0; b <= a; b++ {
			v := (s[a*d+b] - float64(n)*p.mean[a]*p.mean[b]) * p.scale[a] * p.scale[b]
			c.Set(a, b, v)
			c.Set(b, a, v)
		}
	}
	if deflate != nil {
		// P·C·P = C − h·wᵀ − w·hᵀ + (wᵀh)·w·wᵀ with h = C·w.
		h := make([]float64, d)
		for a := 0; a < d; a++ {
			h[a] = dot(c.Data[a*d:(a+1)*d], deflate)
		}
		wh := dot(deflate, h)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				c.Data[a*d+b] += -h[a]*deflate[b] - deflate[a]*h[b] + wh*deflate[a]*deflate[b]
			}
		}
	}
	eig, err := linalg.TopEigen(c, k)
	if err != nil {
		return nil, nil, err
	}
	axes := make([][]float64, k)
	for a := range axes {
		axes[a] = make([]float64, d)
		if a >= d {
			continue // fewer columns than axes
		}
		for j := range axes[a] {
			axes[a][j] = eig.Vectors.At(j, a)
		}
		orthonormalize(axes[a], deflate)
	}
	return axes, eig.Values, nil
}

// project returns Z·w for z_i = D⁻¹(x_i − center), as sparse dot
// products: Σ_nz (w_a/sd_a)·x_ia − Σ_a (w_a/sd_a)·center_a.
func (p *problem) project(w []float64) []float64 {
	coef := make([]float64, p.d)
	off := 0.0
	for a := range coef {
		coef[a] = w[a] * p.scale[a]
		if p.center != nil {
			off += coef[a] * p.center[a]
		}
	}
	out := make([]float64, p.n)
	for i := range out {
		s := 0.0
		for k := p.start[i]; k < p.start[i+1]; k++ {
			s += coef[p.idx[k]] * p.val[k]
		}
		out[i] = s - off
	}
	return out
}

// result embeds every row on the two axes.
func (p *problem) result(axes [][]float64, values []float64, method string) *Result {
	res := &Result{
		Points: make([][2]float64, p.n),
		Axes:   linalg.NewMat(2, p.full),
		Method: method,
	}
	for a, w := range axes {
		for k, j := range p.cols {
			res.Axes.Set(a, j, w[k])
		}
		for i, v := range p.project(w) {
			res.Points[i][a] = v
		}
	}
	total, top := 0.0, 0.0
	for k, v := range values {
		if v > 0 {
			total += v
			if k < 2 {
				top += v
			}
		}
	}
	if total > 0 {
		res.ExplainedRatio = top / total
	}
	return res
}

// orthonormalize removes w's component along the unit vector u (when
// u is non-nil) and scales w to unit length; a w with nothing left is
// zeroed.
func orthonormalize(w, u []float64) {
	if u != nil {
		axpy(-dot(w, u), u, w)
	}
	normalize(w)
}

// normalize scales w to unit length, or zeroes a vanishing w.
func normalize(w []float64) {
	norm := math.Sqrt(dot(w, w))
	for j := range w {
		if norm < 1e-12 {
			w[j] = 0
		} else {
			w[j] /= norm
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// axpy adds alpha·x to y.
func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}
