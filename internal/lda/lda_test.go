package lda

import (
	"fmt"
	"math"
	"testing"

	"vexus/internal/linalg"
	"vexus/internal/rng"
)

// twoBlobs builds two Gaussian clusters separated along a diagonal in
// 4D, labeled 0/1.
func twoBlobs(seed uint64, nPer int) (*linalg.Mat, []int) {
	r := rng.New(seed)
	rows := make([][]float64, 0, 2*nPer)
	labels := make([]int, 0, 2*nPer)
	for c := 0; c < 2; c++ {
		off := float64(c) * 4
		for i := 0; i < nPer; i++ {
			rows = append(rows, []float64{
				off + r.NormFloat64()*0.5,
				off + r.NormFloat64()*0.5,
				r.NormFloat64() * 0.5,
				r.NormFloat64() * 0.5,
			})
			labels = append(labels, c)
		}
	}
	return linalg.FromRows(rows), labels
}

func TestProjectSeparatesClasses(t *testing.T) {
	x, labels := twoBlobs(1, 40)
	res, err := Project(x, labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "lda" {
		t.Fatalf("method = %q, want lda", res.Method)
	}
	if len(res.Points) != 80 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Classes must separate along axis 0: the between-class distance
	// exceeds both within-class spreads.
	var m0, m1 [2]float64
	var n0, n1 int
	for i, p := range res.Points {
		if labels[i] == 0 {
			m0[0] += p[0]
			m0[1] += p[1]
			n0++
		} else {
			m1[0] += p[0]
			m1[1] += p[1]
			n1++
		}
	}
	m0[0] /= float64(n0)
	m0[1] /= float64(n0)
	m1[0] /= float64(n1)
	m1[1] /= float64(n1)
	var s0, s1 float64
	for i, p := range res.Points {
		if labels[i] == 0 {
			s0 += (p[0] - m0[0]) * (p[0] - m0[0])
		} else {
			s1 += (p[0] - m1[0]) * (p[0] - m1[0])
		}
	}
	s0 = math.Sqrt(s0 / float64(n0))
	s1 = math.Sqrt(s1 / float64(n1))
	gap := math.Abs(m0[0] - m1[0])
	if gap < 3*(s0+s1)/2 {
		t.Fatalf("classes not separated: gap %v vs spreads %v/%v", gap, s0, s1)
	}
}

// TestProjectSeparationBeatsPCAWhenVarianceMisleads builds data where
// the highest-variance direction is NOT the discriminative one; LDA
// must still separate, which is the reason Focus view uses it.
func TestProjectSeparationBeatsPCAWhenVarianceMisleads(t *testing.T) {
	r := rng.New(3)
	rows := make([][]float64, 0, 120)
	labels := make([]int, 0, 120)
	for c := 0; c < 2; c++ {
		for i := 0; i < 60; i++ {
			rows = append(rows, []float64{
				r.NormFloat64() * 10,               // huge shared variance
				float64(c)*2 + r.NormFloat64()*0.3, // discriminative
				r.NormFloat64() * 0.1,
			})
			labels = append(labels, c)
		}
	}
	x := linalg.FromRows(rows)
	res, err := Project(x, labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Mean separation along axis 0 normalized by spread must be large.
	var mean [2]float64
	var sep float64
	for i, p := range res.Points {
		if labels[i] == 0 {
			mean[0] += p[0]
		} else {
			mean[1] += p[0]
		}
	}
	mean[0] /= 60
	mean[1] /= 60
	sep = math.Abs(mean[0] - mean[1])
	if sep < 1 {
		t.Fatalf("LDA failed to find the discriminative direction: sep = %v", sep)
	}
}

func TestProjectSingleClassFallsBackToPCA(t *testing.T) {
	x, _ := twoBlobs(5, 30)
	labels := make([]int, x.Rows) // all zero: one class
	res, err := Project(x, labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "pca" {
		t.Fatalf("method = %q, want pca fallback", res.Method)
	}
	if len(res.Points) != x.Rows {
		t.Fatalf("points = %d", len(res.Points))
	}
}

func TestProjectDegenerateFeatures(t *testing.T) {
	// Constant features: within-class scatter singular; ridge + clamp
	// must keep the fit alive.
	rows := [][]float64{
		{1, 7, 0}, {1, 7, 0}, {1, 7, 1}, {1, 7, 1},
	}
	labels := []int{0, 0, 1, 1}
	res, err := Project(linalg.FromRows(rows), labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
			t.Fatalf("NaN in projection: %v", res.Points)
		}
	}
	// One varying column, or none at all, leaves fewer columns than
	// axes; identical rows leave no class means to separate.
	for _, tc := range []struct {
		rows   [][]float64
		labels []int
	}{
		{[][]float64{{1, 7, 0}, {1, 7, 1}, {1, 7, 1}}, []int{0, 0, 0}},
		{[][]float64{{1, 7, 0}, {1, 7, 1}, {1, 7, 1}}, []int{0, 1, 1}},
		{[][]float64{{1, 7}, {1, 7}, {1, 7}}, []int{0, 1, 1}},
	} {
		res, err := Project(linalg.FromRows(tc.rows), tc.labels, DefaultConfig())
		if err != nil {
			t.Fatalf("%v: %v", tc.rows, err)
		}
		for _, p := range res.Points {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
				t.Fatalf("%v: NaN in projection: %v", tc.rows, res.Points)
			}
		}
	}
}

func TestProjectValidation(t *testing.T) {
	if _, err := Project(linalg.NewMat(0, 0), nil, DefaultConfig()); err == nil {
		t.Fatal("empty input accepted")
	}
	x := linalg.FromRows([][]float64{{1, 2}})
	if _, err := Project(x, []int{0, 1}, DefaultConfig()); err == nil {
		t.Fatal("label mismatch accepted")
	}
	nan := linalg.FromRows([][]float64{{1, 0}, {0, math.NaN()}, {1, 1}, {0, 1}})
	for _, labels := range [][]int{{0, 0, 0, 0}, {0, 1, 0, 1}} {
		if _, err := Project(nan, labels, DefaultConfig()); err == nil {
			t.Fatalf("NaN input projected (labels %v)", labels)
		}
	}
}

// TestScanMeansAndScatter pins the scan's column means, its
// standardization, the dropping of constant columns and the raw second
// moment the scatters derive from.
func TestScanMeansAndScatter(t *testing.T) {
	x := linalg.FromRows([][]float64{{1, 0, 2, 1}, {3, 0, 4, 1}, {5, 0, 6, 1}})
	p := scan(x, []int{0, 0, 0}, true)
	if p.full != 4 || p.d != 2 || p.cols[0] != 0 || p.cols[1] != 2 {
		t.Fatalf("kept columns %v of %d, want [0 2] of 4", p.cols, p.full)
	}
	if p.mean[0] != 3 || p.mean[1] != 4 {
		t.Fatalf("means = %v", p.mean)
	}
	// Population sd of {1,3,5} is √(8/3).
	if sd := 1 / p.scale[0]; math.Abs(sd-math.Sqrt(8.0/3)) > 1e-12 {
		t.Fatalf("scales = %v", p.scale)
	}
	if p.start[3] != 6 || p.idx[1] != 1 || p.val[1] != 2 {
		t.Fatalf("nonzeros: start %v idx %v val %v", p.start, p.idx, p.val)
	}
	// Lower triangle of Σ x·xᵀ: Σx₀² = 35, Σx₀x₁ = 44, Σx₁² = 56, so the
	// centered scatter is 35−27 = 8 (variance 4 over n−1) and 44−36 = 8.
	s := p.moment()
	if s[0] != 35 || s[2] != 44 || s[3] != 56 || s[1] != 0 {
		t.Fatalf("moment = %v", s)
	}
	raw := scan(x, []int{0, 0, 0}, false)
	if raw.scale[0] != 1 || raw.center != nil || raw.mean[0] != 3 {
		t.Fatalf("unstandardized scan: scale %v center %v mean %v", raw.scale, raw.center, raw.mean)
	}
	// The dropped columns come back as zeros on the axes.
	res, err := Project(x, []int{0, 0, 0}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Axes.Cols != 4 || res.Axes.At(0, 1) != 0 || res.Axes.At(0, 3) != 0 || res.Axes.At(0, 0) == 0 {
		t.Fatalf("axes = %v", res.Axes.Data)
	}
}

// TestProjectRankOneSecondAxis covers the two-class case: the second
// axis is the leading principal direction orthogonal to the
// discriminant, so it carries the within-class spread.
func TestProjectRankOneSecondAxis(t *testing.T) {
	r := rng.New(9)
	rows := make([][]float64, 0, 80)
	labels := make([]int, 0, 80)
	for c := 0; c < 2; c++ {
		for i := 0; i < 40; i++ {
			rows = append(rows, []float64{
				float64(c)*3 + r.NormFloat64()*0.2, // discriminative
				r.NormFloat64() * 5,                // within-class noise
				r.NormFloat64() * 0.5,
			})
			labels = append(labels, c)
		}
	}
	res, err := Project(linalg.FromRows(rows), labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "lda" {
		t.Fatalf("method = %q", res.Method)
	}
	dot := 0.0
	for j := 0; j < 3; j++ {
		dot += res.Axes.At(0, j) * res.Axes.At(1, j)
	}
	if math.Abs(dot) > 1e-12 {
		t.Fatalf("axes not orthogonal: %v", dot)
	}
	// Standardized, features 1 and 2 are uncorrelated noise of equal
	// variance and feature 0 is spent on the discriminant, so the
	// second axis is spread over features 1 and 2, not feature 0.
	if a := math.Abs(res.Axes.At(1, 0)); a > 0.2 {
		t.Fatalf("second axis leans on the discriminative feature: %v", res.Axes.Data[3:])
	}
	if res.ExplainedRatio < 1-1e-9 {
		t.Fatalf("ExplainedRatio = %v, want 1 for a single discriminant", res.ExplainedRatio)
	}
}

func TestExplainedRatioBounds(t *testing.T) {
	x, labels := twoBlobs(7, 25)
	res, err := Project(x, labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExplainedRatio < 0 || res.ExplainedRatio > 1+1e-9 {
		t.Fatalf("ExplainedRatio = %v", res.ExplainedRatio)
	}
}

func TestThreeClasses(t *testing.T) {
	r := rng.New(11)
	rows := make([][]float64, 0, 90)
	labels := make([]int, 0, 90)
	centers := [][2]float64{{0, 0}, {5, 0}, {0, 5}}
	for c, ctr := range centers {
		for i := 0; i < 30; i++ {
			rows = append(rows, []float64{
				ctr[0] + r.NormFloat64()*0.4,
				ctr[1] + r.NormFloat64()*0.4,
				r.NormFloat64(),
			})
			labels = append(labels, c)
		}
	}
	res, err := Project(linalg.FromRows(rows), labels, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "lda" {
		t.Fatalf("method = %q", res.Method)
	}
	// All three class centroids in 2D must be pairwise well separated.
	cents := make([][2]float64, 3)
	counts := make([]int, 3)
	for i, p := range res.Points {
		cents[labels[i]][0] += p[0]
		cents[labels[i]][1] += p[1]
		counts[labels[i]]++
	}
	for c := range cents {
		cents[c][0] /= float64(counts[c])
		cents[c][1] /= float64(counts[c])
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			dx := cents[a][0] - cents[b][0]
			dy := cents[a][1] - cents[b][1]
			if math.Sqrt(dx*dx+dy*dy) < 1 {
				t.Fatalf("centroids %d/%d too close: %v", a, b, cents)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Equivalence with the dense whitening formulation.

// oracle is the formulation Project replaced, kept as a reference: it
// standardizes a dense copy of x, builds S_w and S_b densely, whitens
// with S_w^{-1/2} from one eigendecomposition and takes the axes from
// the eigenvectors of C = S_w^{-1/2}·S_b·S_w^{-1/2}; the PCA fallback
// eigendecomposes the d×d covariance. It also returns the condition
// number of S_w + ridge·I (0 for PCA).
func oracle(x *linalg.Mat, labels []int, cfg Config) (*Result, float64, error) {
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-6
	}
	work := x
	if cfg.Standardize {
		work = denseStandardize(x)
	}
	seen := map[int]bool{}
	var classes []int
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			classes = append(classes, l)
		}
	}
	if len(classes) >= 2 {
		if res, kappa, err := oracleLDA(work, labels, classes, cfg.Ridge); err == nil {
			return res, kappa, nil
		}
	}
	d := work.Cols
	eig, err := linalg.SymEigen(linalg.Covariance(work))
	if err != nil {
		return nil, 0, err
	}
	axes := linalg.NewMat(2, d)
	for a := 0; a < 2 && a < d; a++ {
		for j := 0; j < d; j++ {
			axes.Set(a, j, eig.Vectors.At(j, a))
		}
	}
	return denseEmbed(work, axes, eig.Values, "pca"), 0, nil
}

func oracleLDA(x *linalg.Mat, labels, classes []int, ridge float64) (*Result, float64, error) {
	d := x.Cols
	grand := linalg.ColumnMeans(x)
	sw := linalg.NewMat(d, d)
	sb := linalg.NewMat(d, d)
	for _, cls := range classes {
		var rows [][]float64
		for i := 0; i < x.Rows; i++ {
			if labels[i] == cls {
				rows = append(rows, x.Data[i*d:(i+1)*d])
			}
		}
		mean := linalg.ColumnMeans(linalg.FromRows(rows))
		for _, r := range rows {
			for a := 0; a < d; a++ {
				for b := 0; b < d; b++ {
					sw.Data[a*d+b] += (r[a] - mean[a]) * (r[b] - mean[b])
				}
			}
		}
		n := float64(len(rows))
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				sb.Data[a*d+b] += n * (mean[a] - grand[a]) * (mean[b] - grand[b])
			}
		}
	}
	for i := 0; i < d; i++ {
		sw.Data[i*d+i] += ridge
	}
	// S_w^{-1/2}, dropping null directions.
	eig, err := linalg.SymEigen(sw)
	if err != nil {
		return nil, 0, err
	}
	kappa := eig.Values[0] / eig.Values[d-1]
	half := linalg.NewMat(d, d)
	for k := 0; k < d; k++ {
		if eig.Values[k] < 1e-10 {
			continue
		}
		w := 1 / math.Sqrt(eig.Values[k])
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				half.Data[i*d+j] += w * eig.Vectors.At(i, k) * eig.Vectors.At(j, k)
			}
		}
	}
	c := denseMul(denseMul(half, sb), half)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := (c.At(i, j) + c.At(j, i)) / 2
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	ceig, err := linalg.SymEigen(c)
	if err != nil {
		return nil, 0, err
	}
	axes := linalg.NewMat(2, d)
	for a := 0; a < 2 && a < d; a++ {
		w := make([]float64, d)
		norm := 0.0
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				w[i] += half.At(i, j) * ceig.Vectors.At(j, a)
			}
			norm += w[i] * w[i]
		}
		for j := range w {
			axes.Set(a, j, w[j]/math.Sqrt(norm))
		}
	}
	return denseEmbed(x, axes, ceig.Values, "lda"), kappa, nil
}

func denseStandardize(x *linalg.Mat) *linalg.Mat {
	out := x.Clone()
	means := linalg.ColumnMeans(x)
	for j := 0; j < x.Cols; j++ {
		variance := 0.0
		for i := 0; i < x.Rows; i++ {
			dv := x.At(i, j) - means[j]
			variance += dv * dv
		}
		sd := math.Sqrt(variance / float64(x.Rows))
		if sd < 1e-12 {
			sd = 1
		}
		for i := 0; i < x.Rows; i++ {
			out.Set(i, j, (x.At(i, j)-means[j])/sd)
		}
	}
	return out
}

func denseMul(a, b *linalg.Mat) *linalg.Mat {
	out := linalg.NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

func denseEmbed(x, axes *linalg.Mat, values []float64, method string) *Result {
	res := &Result{Points: make([][2]float64, x.Rows), Axes: axes, Method: method}
	for i := 0; i < x.Rows; i++ {
		for a := 0; a < 2; a++ {
			for j := 0; j < x.Cols; j++ {
				res.Points[i][a] += axes.At(a, j) * x.At(i, j)
			}
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

// sparseCase is a random 0/1 term matrix shaped like a focused
// group's: each member holds a few terms, some columns are constant,
// and one class may have a single member.
type sparseCase struct {
	n, d, classes int
	density       float64
	constant      bool // column 0 all zeros, column 1 all ones
	singleton     bool // the last class has exactly one member
}

func (sc sparseCase) build(seed uint64) (*linalg.Mat, []int) {
	r := rng.New(seed)
	x := linalg.NewMat(sc.n, sc.d)
	labels := make([]int, sc.n)
	for i := 0; i < sc.n; i++ {
		for j := 0; j < sc.d; j++ {
			if r.Float64() < sc.density {
				x.Set(i, j, 1)
			}
		}
		if sc.constant {
			x.Set(i, 0, 0)
			x.Set(i, 1, 1)
		}
		// Every class is present; class membership also shifts the
		// term rates so the classes are separable.
		free := sc.classes
		if sc.singleton && sc.classes > 1 {
			free--
		}
		labels[i] = 10 * (i % free)
		if i >= free {
			labels[i] = 10 * r.Intn(free)
		}
		j := 2 + labels[i]/10
		if j < sc.d && r.Float64() < 0.7 {
			x.Set(i, j, 1)
		}
	}
	if sc.singleton && sc.classes > 1 {
		labels[sc.n-1] = -1
	}
	return x, labels
}

func pointCorr(a, b *Result, axis int) float64 {
	n := float64(len(a.Points))
	var ma, mb float64
	for i := range a.Points {
		ma += a.Points[i][axis]
		mb += b.Points[i][axis]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a.Points {
		da, db := a.Points[i][axis]-ma, b.Points[i][axis]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

// TestProjectMatchesWhiteningOracle checks that the sparse Cholesky
// fit reproduces the dense S_w^{-1/2} formulation: the same Method,
// the same ExplainedRatio, and points perfectly correlated on every
// axis the oracle defines. With two classes S_b has rank 1 and the
// oracle's second axis is an arbitrary null vector, so only the first
// is compared and the second must be orthogonal to it.
//
// ExplainedRatio agrees to 1e-9, or to κ·ε when that is larger: with
// n < d (or a constant column) S_w is singular and the ridge sets the
// eigenvalues, so both fits inherit errors of order κ·ε from forming
// S_w + ridge·I in float64, where κ ≈ 1e8 is its condition number.
// There both differ from a 300-bit evaluation by up to ~2e-9, the
// oracle by more than Project.
func TestProjectMatchesWhiteningOracle(t *testing.T) {
	var cases []sparseCase
	for _, shape := range [][2]int{{30, 60}, {200, 40}} {
		for _, c := range []int{1, 2, 4, 6} {
			cases = append(cases,
				sparseCase{n: shape[0], d: shape[1], classes: c, density: 0.08},
				sparseCase{n: shape[0], d: shape[1], classes: c, density: 0.15, constant: true, singleton: true})
		}
	}
	for ci, sc := range cases {
		// Three seeds standardized, one on the raw features.
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := DefaultConfig()
			cfg.Standardize = seed <= 3
			name := fmt.Sprintf("case%d/%+v/seed%d/standardize=%v", ci, sc, seed, cfg.Standardize)
			x, labels := sc.build(seed + 100*uint64(ci))
			want, kappa, err := oracle(x, labels, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			got, err := Project(x, labels, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Method != want.Method {
				t.Fatalf("%s: method %q, oracle %q", name, got.Method, want.Method)
			}
			tol := math.Max(1e-9, kappa*0x1p-52)
			if diff := math.Abs(got.ExplainedRatio - want.ExplainedRatio); diff > tol {
				t.Fatalf("%s: ExplainedRatio %v, oracle %v (tolerance %.2g)", name, got.ExplainedRatio, want.ExplainedRatio, tol)
			}
			rank1 := sc.classes == 2
			for axis := 0; axis < 2; axis++ {
				if axis == 1 && rank1 {
					continue
				}
				if c := math.Abs(pointCorr(got, want, axis)); !(c >= 1-1e-9) {
					t.Fatalf("%s: axis %d |corr| = %.12f", name, axis, c)
				}
			}
			if rank1 {
				ortho := 0.0
				for j := 0; j < x.Cols; j++ {
					ortho += got.Axes.At(0, j) * got.Axes.At(1, j)
				}
				if math.Abs(ortho) > 1e-9 {
					t.Fatalf("%s: rank-1 axes not orthogonal: %v", name, ortho)
				}
			}
			again, _ := Project(x, labels, cfg)
			for i := range got.Points {
				if got.Points[i] != again.Points[i] {
					t.Fatalf("%s: point %d differs between calls", name, i)
				}
			}
		}
	}
}
