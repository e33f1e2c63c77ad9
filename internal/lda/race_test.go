//go:build race

package lda_test

// sweepStride thins TestBookCrossingFocusSweep to every 16th group
// under the race detector, which slows this single-goroutine numeric
// code about twelvefold.
const sweepStride = 16
