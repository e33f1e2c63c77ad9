package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"vexus/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 || m.At(1, 2) != 0 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone aliases")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

// solvers are the two symmetric eigensolvers: the Jacobi reference
// and TopEigen asked for every eigenvector.
var solvers = []struct {
	name  string
	eigen func(*Mat) (*Eigen, error)
}{
	{"jacobi", SymEigen},
	{"top", func(a *Mat) (*Eigen, error) { return TopEigen(a, a.Rows) }},
}

func TestSymEigenKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	for _, s := range solvers {
		eig, err := s.eigen(a)
		if err != nil {
			t.Fatal(s.name, err)
		}
		if !approx(eig.Values[0], 3, 1e-9) || !approx(eig.Values[1], 1, 1e-9) {
			t.Fatalf("%s: values = %v", s.name, eig.Values)
		}
		// First eigenvector ∝ (1,1)/√2.
		v0 := math.Abs(eig.Vectors.At(0, 0))
		v1 := math.Abs(eig.Vectors.At(1, 0))
		if !approx(v0, 1/math.Sqrt2, 1e-9) || !approx(v1, 1/math.Sqrt2, 1e-9) {
			t.Fatalf("%s: vector = %v %v", s.name, v0, v1)
		}
	}
}

func TestSymEigenRejects(t *testing.T) {
	for _, s := range solvers {
		if _, err := s.eigen(NewMat(2, 3)); err == nil {
			t.Fatalf("%s: non-square accepted", s.name)
		}
		asym := FromRows([][]float64{{1, 2}, {3, 4}})
		if _, err := s.eigen(asym); err == nil {
			t.Fatalf("%s: asymmetric accepted", s.name)
		}
	}
}

func TestPropEigenReconstruction(t *testing.T) {
	for _, s := range solvers {
		f := func(seed int64) bool {
			return reconstructs(s.eigen, seed)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(s.name, err)
		}
	}
}

// reconstructs checks A == V diag(λ) Vᵀ and VᵀV == I for a random
// symmetric A of size 2…7.
func reconstructs(eigen func(*Mat) (*Eigen, error), seed int64) bool {
	r := rng.New(uint64(seed) + 7)
	n := 2 + r.Intn(6)
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	eig, err := eigen(a)
	if err != nil {
		return false
	}
	// Descending eigenvalues.
	for k := 1; k < n; k++ {
		if eig.Values[k] > eig.Values[k-1]+1e-9 {
			return false
		}
	}
	// Reconstruction.
	d := NewMat(n, n)
	for k := 0; k < n; k++ {
		d.Set(k, k, eig.Values[k])
	}
	rec := mul(mul(eig.Vectors, d), transpose(eig.Vectors))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !approx(rec.At(i, j), a.At(i, j), 1e-7) {
				return false
			}
		}
	}
	// Orthonormality.
	id := mul(transpose(eig.Vectors), eig.Vectors)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !approx(id.At(i, j), want, 1e-8) {
				return false
			}
		}
	}
	return true
}

func TestCovariance(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	c := Covariance(x)
	// Var of {1,3,5} = 4; covariance with {2,4,6} = 4.
	if !approx(c.At(0, 0), 4, 1e-12) || !approx(c.At(0, 1), 4, 1e-12) {
		t.Fatalf("cov = %v", c.Data)
	}
	if got := Covariance(FromRows([][]float64{{1, 2}})); got.At(0, 0) != 0 {
		t.Fatal("single-row covariance should be zero")
	}
}

func TestColumnMeans(t *testing.T) {
	x := FromRows([][]float64{{1, 10}, {3, 20}})
	m := ColumnMeans(x)
	if m[0] != 2 || m[1] != 15 {
		t.Fatalf("means = %v", m)
	}
	if got := ColumnMeans(NewMat(0, 3)); len(got) != 3 {
		t.Fatal("empty means")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	if id.At(0, 0) != 1 || id.At(0, 1) != 0 {
		t.Fatal("identity wrong")
	}
}

func mul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

func transpose(m *Mat) *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func frobenius(m *Mat) float64 {
	s := 0.0
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// randomOrthogonal returns an n×n orthogonal matrix: Gram–Schmidt,
// run twice, over Gaussian columns.
func randomOrthogonal(r *rng.RNG, n int) *Mat {
	q := NewMat(n, n)
	for i := range q.Data {
		q.Data[i] = r.NormFloat64()
	}
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				dot := 0.0
				for i := 0; i < n; i++ {
					dot += q.At(i, j) * q.At(i, k)
				}
				for i := 0; i < n; i++ {
					q.Set(i, j, q.At(i, j)-dot*q.At(i, k))
				}
			}
		}
		norm := 0.0
		for i := 0; i < n; i++ {
			norm += q.At(i, j) * q.At(i, j)
		}
		norm = math.Sqrt(norm)
		for i := 0; i < n; i++ {
			q.Set(i, j, q.At(i, j)/norm)
		}
	}
	return q
}

// wideSpectrum returns Q·diag(λ)·Qᵀ, exactly symmetric, for a random
// orthogonal Q and n eigenvalues spaced evenly in log scale over
// 1e-6…1e6.
func wideSpectrum(seed uint64, n int) *Mat {
	q := randomOrthogonal(rng.New(seed), n)
	lambda := NewMat(n, n)
	for k := 0; k < n; k++ {
		lambda.Set(k, k, math.Pow(10, -6+12*float64(k)/float64(n-1)))
	}
	a := mul(mul(q, lambda), transpose(q))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(j, i, a.At(i, j))
		}
	}
	return a
}

// TestSymEigenWideSpectrum is the regression test for the relative
// stopping rule: a 123×123 matrix (the Focus view's vocabulary size)
// with eigenvalues spanning 1e-6…1e6 converges well under the sweep cap
// and reconstructs to 1e-10 relative. The old absolute rule
// (off-diagonal² < 1e-22) could not be met at this scale and ran every
// sweep.
func TestSymEigenWideSpectrum(t *testing.T) {
	const n = 123
	a := wideSpectrum(17, n)
	eig, sweeps, err := jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	// The bottom of the spectrum is tightly clustered in absolute
	// terms, which slows the middle sweeps; 19 suffice for this seed.
	if sweeps > 24 {
		t.Fatalf("%d sweeps, want well under the cap of %d", sweeps, maxSweeps)
	}
	for _, s := range solvers {
		if s.name != "jacobi" {
			if eig, err = s.eigen(a); err != nil {
				t.Fatal(s.name, err)
			}
		}
		d := NewMat(n, n)
		for k := 0; k < n; k++ {
			d.Set(k, k, eig.Values[k])
		}
		rec := mul(mul(eig.Vectors, d), transpose(eig.Vectors))
		diff := rec.Clone()
		for i := range diff.Data {
			diff.Data[i] -= a.Data[i]
		}
		if rel := frobenius(diff) / frobenius(a); rel > 1e-10 {
			t.Fatalf("%s: reconstruction error %.3g relative, want ≤ 1e-10", s.name, rel)
		}
		if top := eig.Values[0]; !approx(top, 1e6, 1e-4) {
			t.Fatalf("%s: largest eigenvalue %v, want 1e6", s.name, top)
		}
	}
}

func TestSymEigenNonFinite(t *testing.T) {
	for _, s := range solvers {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			a := FromRows([][]float64{{1, bad}, {bad, 2}})
			if _, err := s.eigen(a); err == nil {
				t.Fatalf("%s: eigen of a matrix holding %v succeeded", s.name, bad)
			}
		}
	}
}

func TestSymEigenZero(t *testing.T) {
	for _, s := range solvers {
		zero := NewMat(3, 3)
		eig, err := s.eigen(zero)
		if err != nil {
			t.Fatal(s.name, err)
		}
		for _, v := range eig.Values {
			if v != 0 {
				t.Fatalf("%s: values = %v", s.name, eig.Values)
			}
		}
		if residual(zero, eig) != 0 {
			t.Fatalf("%s: vectors of the zero matrix are not orthonormal: %v", s.name, eig.Vectors.Data)
		}
	}
}

// TestTopEigenMatchesJacobi holds TopEigen to the Jacobi reference:
// every eigenvalue within 1e-12·‖A‖_F, each returned vector an
// eigenvector to 1e-12·‖A‖_F and orthonormal to the others, and
// parallel to Jacobi's wherever its eigenvalue is separated from the
// rest of the spectrum (where it is not, the eigenvector is not
// unique).
func TestTopEigenMatchesJacobi(t *testing.T) {
	r := rng.New(23)
	random := func(n int) *Mat {
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		return a
	}
	diagonal := NewMat(5, 5)
	for i, v := range []float64{3, -1, 7, 0, 2} {
		diagonal.Set(i, i, v)
	}
	tridiagonal := NewMat(6, 6)
	for i := 0; i < 6; i++ {
		tridiagonal.Set(i, i, float64(i%3)-1)
		if i > 0 {
			tridiagonal.Set(i, i-1, 0.5*float64(i))
			tridiagonal.Set(i-1, i, 0.5*float64(i))
		}
	}
	for _, tc := range []struct {
		name string
		a    *Mat
	}{
		{"n=1", random(1)},
		{"n=2", random(2)},
		{"n=3", random(3)},
		{"n=130", random(130)},
		{"wide spectrum", wideSpectrum(17, 123)},
		{"zero", NewMat(4, 4)},
		{"identity", Identity(4)},
		{"diagonal", diagonal},
		{"tridiagonal", tridiagonal},
		{"rank-deficient Gram", focusGram(r, 90, 120, 30)},
	} {
		n := tc.a.Rows
		ref, err := SymEigen(tc.a)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		norm := frobenius(tc.a)
		for _, k := range []int{2, n} {
			eig, err := TopEigen(tc.a, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			k = min(k, n)
			if len(eig.Values) != n || eig.Vectors.Rows != n || eig.Vectors.Cols != k {
				t.Fatalf("%s k=%d: %d values, %dx%d vectors", tc.name, k, len(eig.Values), eig.Vectors.Rows, eig.Vectors.Cols)
			}
			for i, v := range eig.Values {
				if !approx(v, ref.Values[i], 1e-12*norm) {
					t.Fatalf("%s: eigenvalue %d is %v, Jacobi %v", tc.name, i, v, ref.Values[i])
				}
			}
			if res := residual(tc.a, eig); res > 1e-12*norm {
				t.Fatalf("%s k=%d: residual %.3g", tc.name, k, res)
			}
			for j := 0; j < k; j++ {
				gap := math.Inf(1)
				for i, v := range ref.Values {
					if i != j {
						gap = math.Min(gap, math.Abs(v-ref.Values[j]))
					}
				}
				if gap < 1e-6*norm {
					continue
				}
				c := 0.0
				for i := 0; i < n; i++ {
					c += eig.Vectors.At(i, j) * ref.Vectors.At(i, j)
				}
				if !(math.Abs(c) >= 1-1e-9) {
					t.Fatalf("%s: vector %d |⟨v, v_jacobi⟩| = %.12f", tc.name, j, math.Abs(c))
				}
			}
		}
	}
}

// residual returns the largest ‖A·v − λ·v‖ over the returned vectors,
// or +Inf when they are not orthonormal to 1e-12.
func residual(a *Mat, eig *Eigen) float64 {
	n, k := eig.Vectors.Rows, eig.Vectors.Cols
	worst := 0.0
	for j := 0; j < k; j++ {
		for l := 0; l <= j; l++ {
			want, got := 0.0, 0.0
			if l == j {
				want = 1
			}
			for i := 0; i < n; i++ {
				got += eig.Vectors.At(i, j) * eig.Vectors.At(i, l)
			}
			if !approx(got, want, 1e-12) {
				return math.Inf(1)
			}
		}
		s := 0.0
		for i := 0; i < n; i++ {
			av := 0.0
			for l := 0; l < n; l++ {
				av += a.At(i, l) * eig.Vectors.At(l, j)
			}
			dv := av - eig.Values[j]*eig.Vectors.At(i, j)
			s += dv * dv
		}
		worst = math.Max(worst, math.Sqrt(s))
	}
	return worst
}

// focusGram returns the Gram matrix Z·Zᵀ of n centered, standardized
// 0/1 term rows over d columns, drawn from only `distinct` term sets:
// the Focus view's n < d case, where members sharing a profile make
// the Gram matrix rank deficient.
func focusGram(r *rng.RNG, n, d, distinct int) *Mat {
	patterns := make([][]float64, distinct)
	for p := range patterns {
		patterns[p] = make([]float64, d)
		for j := range patterns[p] {
			if r.Float64() < 0.1 {
				patterns[p][j] = 1
			}
		}
	}
	z := NewMat(n, d)
	for i := 0; i < n; i++ {
		copy(z.Data[i*d:(i+1)*d], patterns[r.Intn(distinct)])
	}
	means := ColumnMeans(z)
	for j := 0; j < d; j++ {
		sq := 0.0
		for i := 0; i < n; i++ {
			z.Set(i, j, z.At(i, j)-means[j])
			sq += z.At(i, j) * z.At(i, j)
		}
		if sd := math.Sqrt(sq / float64(n)); sd > 0 {
			for i := 0; i < n; i++ {
				z.Set(i, j, z.At(i, j)/sd)
			}
		}
	}
	g := mul(z, transpose(z))
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			g.Set(j, i, g.At(i, j))
		}
	}
	return g
}

// TestTopEigenIterationCap checks that QL running out of iterations is
// an error, never unconverged values.
func TestTopEigenIterationCap(t *testing.T) {
	a := wideSpectrum(3, 20)
	if _, err := topEigen(a, 2, 5); err == nil {
		t.Fatal("5 QL iterations reported convergence on a 20×20 matrix")
	}
	if _, err := topEigen(a, 2, qlIterPerValue*20); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolves(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{1, 2, 7, 40} {
		// A = GGᵀ + I is symmetric positive definite.
		g := NewMat(n, n)
		for i := range g.Data {
			g.Data[i] = r.NormFloat64()
		}
		a := mul(g, transpose(g))
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: L not lower triangular", n)
				}
			}
		}
		rec := mul(l, transpose(l))
		for i := range rec.Data {
			if !approx(rec.Data[i], a.Data[i], 1e-10*frobenius(a)) {
				t.Fatalf("n=%d: LLᵀ != A", n)
			}
		}
		// L·(Lᵀ·x) = b round trip through both solves.
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := append([]float64(nil), b...)
		SolveLower(l, x)
		SolveLowerT(l, x)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if !approx(s, b[i], 1e-9) {
				t.Fatalf("n=%d: A·x = %v at %d, want %v", n, s, i, b[i])
			}
		}
	}
}

func TestCholeskyRejects(t *testing.T) {
	for name, a := range map[string]*Mat{
		"indefinite": FromRows([][]float64{{1, 2}, {2, 1}}),
		"singular":   FromRows([][]float64{{1, 1}, {1, 1}}),
		"nan":        FromRows([][]float64{{1, 0}, {math.NaN(), 1}}),
		"non-square": NewMat(2, 3),
	} {
		if _, err := Cholesky(a); err == nil {
			t.Fatalf("%s matrix factored", name)
		}
	}
}
