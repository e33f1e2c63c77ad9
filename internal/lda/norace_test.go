//go:build !race

package lda_test

// sweepStride 1: without the race detector the sweep opens every group.
const sweepStride = 1
