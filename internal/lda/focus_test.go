package lda_test

import (
	"math"
	"testing"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/lda"
	"vexus/internal/linalg"
)

// TestBookCrossingFocusSweep opens the Focus view, with age classes,
// on every group of the BookCrossing small-scale engine (minimum
// support 1%; every sweepStride-th group under the race detector):
// each gets a projection with one finite point per member. On every
// 8th PCA-fallback group — single-class groups, which take both the
// n×n Gram and the d×d covariance path — both axes must match the
// dense whitening oracle to |corr| ≥ 1−1e-9.
func TestBookCrossingFocusSweep(t *testing.T) {
	d, err := datagen.BookCrossing(datagen.SmallScale(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.BookCrossingEncodeOptions()
	cfg.MinSupportFrac = 0.01
	eng, err := core.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession(greedy.DefaultConfig())
	pca, checked := 0, 0
	for gid := 0; gid < eng.Space.Len(); gid += sweepStride {
		fv, err := sess.Focus(gid, "age")
		if err != nil {
			t.Fatalf("group %d: %v", gid, err)
		}
		res := fv.Projection
		if res == nil || len(res.Points) != len(fv.Members) {
			t.Fatalf("group %d (%d members): projection %+v", gid, len(fv.Members), res)
		}
		for i, p := range res.Points {
			if math.IsNaN(p[0]+p[1]) || math.IsInf(p[0]+p[1], 0) {
				t.Fatalf("group %d: point %d is %v", gid, i, p)
			}
		}
		if res.Method != "pca" {
			continue
		}
		pca++
		if pca%8 != 1 {
			continue
		}
		checked++
		x, labels := focusInput(eng, fv.Members)
		want, _, err := lda.Oracle(x, labels, lda.DefaultConfig())
		if err != nil {
			t.Fatalf("group %d: oracle: %v", gid, err)
		}
		if want.Method != "pca" {
			t.Fatalf("group %d: oracle method %q", gid, want.Method)
		}
		for axis := 0; axis < 2; axis++ {
			if c := math.Abs(lda.PointCorr(res, want, axis)); !(c >= 1-1e-9) {
				t.Fatalf("group %d (%d members): axis %d |corr| = %.12f", gid, len(fv.Members), axis, c)
			}
		}
	}
	t.Logf("%d groups, %d by PCA, %d checked against the oracle", eng.Space.Len(), pca, checked)
	if checked < 70/sweepStride {
		t.Fatalf("only %d PCA groups checked", checked)
	}
}

// focusInput builds the term-indicator matrix and age labels that the
// Focus view projects for these members.
func focusInput(eng *core.Engine, members []int) (*linalg.Mat, []int) {
	vocab := eng.Tx.Vocab.Len()
	age := eng.Data.Schema.AttrIndex("age")
	x := linalg.NewMat(len(members), vocab)
	labels := make([]int, len(members))
	for i, u := range members {
		for _, id := range eng.Tx.PerUser[u] {
			x.Set(i, int(id), 1)
		}
		labels[i] = eng.Data.Users[u].Demo[age]
		if labels[i] == dataset.Missing {
			labels[i] = -1
		}
	}
	return x, labels
}
