package linalg

// Covariance returns the sample covariance matrix of the rows of x
// (observations × features), dividing by n−1; with one row it returns
// the zero matrix. It is the dense reference for the sparse scatter
// the LDA fit accumulates.
func Covariance(x *Mat) *Mat {
	n, d := x.Rows, x.Cols
	out := NewMat(d, d)
	if n < 2 {
		return out
	}
	means := ColumnMeans(x)
	for i := 0; i < n; i++ {
		for a := 0; a < d; a++ {
			da := x.At(i, a) - means[a]
			if da == 0 {
				continue
			}
			for b := a; b < d; b++ {
				out.Data[a*d+b] += da * (x.At(i, b) - means[b])
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := out.At(a, b) / float64(n-1)
			out.Set(a, b, v)
			out.Set(b, a, v)
		}
	}
	return out
}

// ColumnMeans returns the per-column means of x.
func ColumnMeans(x *Mat) []float64 {
	means := make([]float64, x.Cols)
	if x.Rows == 0 {
		return means
	}
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			means[j] += x.At(i, j)
		}
	}
	for j := range means {
		means[j] /= float64(x.Rows)
	}
	return means
}
