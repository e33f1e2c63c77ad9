package linalg

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzTopEigen feeds TopEigen symmetric matrices of size 1…16 whose
// lower triangles are read from raw as little-endian float64s (zero
// once raw runs out), with any k. It must never panic, and it either
// errors or returns finite eigenvalues, descending, whose top
// eigenvectors are orthonormal and satisfy A·v ≈ λ·v relative to ‖A‖.
// Regression seeds live in testdata/fuzz/FuzzTopEigen.
// The Focus view reaches TopEigen with matrices built from ingested
// users.
func FuzzTopEigen(f *testing.F) {
	f.Add(uint8(2), int8(2), floats(2, 1, 2))
	f.Add(uint8(4), int8(2), floats(0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(uint8(3), int8(1), floats(1, 0, 1, 0, 0, 1))
	f.Add(uint8(3), int8(3), floats(1, math.NaN(), 1))
	f.Add(uint8(2), int8(2), floats(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64))
	f.Add(uint8(3), int8(-1), floats(5e-324, 1e-300, 1e300, 0, 1, 1e-310))
	f.Fuzz(func(t *testing.T, size uint8, k int8, raw []byte) {
		n := int(size%16) + 1
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := 0.0
				if len(raw) >= 8 {
					v = math.Float64frombits(binary.LittleEndian.Uint64(raw))
					raw = raw[8:]
				}
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		eig, err := TopEigen(a, int(k))
		if err != nil {
			return
		}
		kk := max(0, min(int(k), n))
		if len(eig.Values) != n || eig.Vectors.Rows != n || eig.Vectors.Cols != kk {
			t.Fatalf("%d values, %dx%d vectors for n=%d k=%d", len(eig.Values), eig.Vectors.Rows, eig.Vectors.Cols, n, k)
		}
		for i, v := range eig.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) || (i > 0 && v > eig.Values[i-1]) {
				t.Fatalf("values %v", eig.Values)
			}
		}
		// Check the residual on A and λ scaled by the largest entry,
		// so that neither the check nor ‖A‖ overflows.
		peak := 0.0
		for _, x := range a.Data {
			peak = math.Max(peak, math.Abs(x))
		}
		if peak == 0 {
			peak = 1
		}
		scaled := &Eigen{Values: make([]float64, n), Vectors: eig.Vectors}
		for i, v := range eig.Values {
			scaled.Values[i] = v / peak
		}
		as := a.Clone()
		for i := range as.Data {
			as.Data[i] /= peak
		}
		// An eigenvalue in the subnormal range is only as exact as its
		// representation: 2⁻¹⁰⁷⁴ absolute.
		tol := 1e-12*float64(n)*math.Max(1, frobenius(as)) + 0x1p-1074/peak
		if res := residual(as, scaled); res > tol {
			t.Fatalf("residual %.3g for\n%v\nvalues %v", res, a.Data, eig.Values)
		}
	})
}

// floats packs values as the little-endian bytes FuzzTopEigen reads.
func floats(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
