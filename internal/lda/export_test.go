package lda

// The dense whitening oracle and the point correlation, for the
// external tests in this directory.
var (
	Oracle    = oracle
	PointCorr = pointCorr
)
