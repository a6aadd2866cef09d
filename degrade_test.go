package xsdf_test

// Public-API acceptance tests for graceful degradation and admission
// control: the ladder trades quality for completion under deadline
// pressure, the gate sheds load with typed overload errors, and batch runs
// keep the two failure families distinguishable.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// TestDegradedResultPublicAPI: an already-expired deadline with the ladder
// on still completes the document — at first-sense, reported per document
// and per node.
func TestDegradedResultPublicAPI(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{Degrade: xsdf.DegradeOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := fw.DisambiguateContext(ctx, strings.NewReader(figure1a))
	if err != nil {
		t.Fatalf("ladder must ride out the expired deadline: %v", err)
	}
	if res.Degraded != xsdf.DegradeFirstSense {
		t.Errorf("Result.Degraded = %v, want first-sense", res.Degraded)
	}
	if res.Unscored != 0 {
		t.Errorf("Unscored = %d, want 0 (run completed)", res.Unscored)
	}
	sum := 0
	for _, n := range res.NodesAtLevel {
		sum += n
	}
	if sum != res.Targets {
		t.Errorf("NodesAtLevel sum %d != Targets %d", sum, res.Targets)
	}
	marked := 0
	for _, n := range res.Tree.Nodes() {
		if n.Degraded == xsdf.DegradeFirstSense {
			marked++
		}
	}
	if marked != res.NodesAtLevel[xsdf.DegradeFirstSense] {
		t.Errorf("per-node marks %d != NodesAtLevel %d", marked, res.NodesAtLevel[xsdf.DegradeFirstSense])
	}
}

// TestWatermarkDegradation: the node-count watermark starts the document
// below full quality without any deadline at all.
func TestWatermarkDegradation(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{Degrade: xsdf.DegradeOptions{Enabled: true, ConceptOnlyAfter: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.DisambiguateString(figure1a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != xsdf.DegradeConceptOnly {
		t.Errorf("Degraded = %v, want concept-only", res.Degraded)
	}
	if res.NodesAtLevel[xsdf.DegradeNone] != 0 {
		t.Errorf("%d nodes ran at full quality past the watermark", res.NodesAtLevel[xsdf.DegradeNone])
	}
}

// TestCancelMidLadderKeepsPartialResult: cancelling during disambiguation
// with the ladder on returns the partial Result alongside a *DegradedError
// matching both sentinels.
func TestCancelMidLadderKeepsPartialResult(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{Degrade: xsdf.DegradeOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	restore := core.SetTestHooks(core.TestHooks{BeforeNode: func(*xsdf.Node) {
		once.Do(cancel)
	}})
	defer restore()
	res, err := fw.DisambiguateTreeContext(ctx, mustParse(t, fw, figure1a))
	if !errors.Is(err, xsdf.ErrDegraded) || !errors.Is(err, xsdf.ErrCanceled) {
		t.Fatalf("want ErrDegraded+ErrCanceled, got %v", err)
	}
	var de *xsdf.DegradedError
	if !errors.As(err, &de) {
		t.Fatal("errors.As must find *DegradedError")
	}
	if res == nil {
		t.Fatal("degraded abort must keep the partial result")
	}
	if res.Unscored == 0 || res.Unscored != de.Unscored {
		t.Errorf("Unscored: result %d, error %d; want equal and > 0", res.Unscored, de.Unscored)
	}
}

// TestMixedBatchFailureModes is the acceptance scenario for the error
// taxonomy: one batch in which one document panics, one exceeds its
// per-document timeout, and one is turned away by the admission gate —
// every slot fails with its own typed error, and BatchError.Failed lists
// all three.
func TestMixedBatchFailureModes(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{Admission: xsdf.AdmissionOptions{MaxNodes: 100}})
	if err != nil {
		t.Fatal(err)
	}
	panicky := mustParse(t, fw, `<a><b>x</b></a>`)
	slow := mustParse(t, fw, `<a><b>y</b></a>`)
	big := mustParse(t, fw, figure1a) // > 5 nodes: cannot fit next to the blocker

	// The blocker occupies 95 of the gate's 100 node slots for the whole
	// batch, parked inside its BeforeTree hook (which runs after
	// admission, so held means admitted).
	blocker := deepChain(94)
	held := make(chan struct{})
	hold := make(chan struct{})
	blockerDone := make(chan struct{})
	restore := core.SetTestHooks(core.TestHooks{BeforeTree: func(tr *xsdf.Tree) {
		switch tr {
		case blocker:
			close(held)
			<-hold
		case panicky:
			panic("poisoned document")
		case slow:
			time.Sleep(60 * time.Millisecond)
		}
	}})
	defer restore()
	go func() {
		defer close(blockerDone)
		fw.DisambiguateTree(blocker)
	}()
	defer func() { close(hold); <-blockerDone }()
	// Wait until the blocker holds its slots (its weight blocks big docs).
	// Probing with a document instead can shed the blocker itself: the
	// gate rejects without waiting, and a probe in flight when the blocker
	// arrives leaves it no room.
	<-held

	results, err := fw.DisambiguateBatchContext(context.Background(),
		[]*xsdf.Tree{panicky, slow, big},
		xsdf.BatchOptions{Workers: 1, DocTimeout: 20 * time.Millisecond})
	var be *xsdf.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if got := be.Failed(); len(got) != 3 {
		t.Fatalf("Failed() = %v, want all three documents", got)
	}
	if got := be.Degraded(); len(got) != 0 {
		t.Errorf("Degraded() = %v, want none (ladder off)", got)
	}
	var pe *xsdf.PanicError
	if !errors.As(be.Errs[0], &pe) {
		t.Errorf("doc 0: want *PanicError, got %v", be.Errs[0])
	}
	if !errors.Is(be.Errs[1], xsdf.ErrCanceled) || !errors.Is(be.Errs[1], context.DeadlineExceeded) {
		t.Errorf("doc 1: want deadline-flavored ErrCanceled, got %v", be.Errs[1])
	}
	var oe *xsdf.OverloadError
	if !errors.As(be.Errs[2], &oe) {
		t.Errorf("doc 2: want *OverloadError, got %v", be.Errs[2])
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("failed slot %d kept a result", i)
		}
	}
}

// TestBatchDegradedSlotKeepsResult: in a batch, a document canceled
// mid-ladder keeps its partial result in its slot, is listed by
// BatchError.Degraded, and excluded from Failed.
func TestBatchDegradedSlotKeepsResult(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{Degrade: xsdf.DegradeOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	trees := []*xsdf.Tree{mustParse(t, fw, figure1a), mustParse(t, fw, figure1b)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	restore := core.SetTestHooks(core.TestHooks{BeforeNode: func(*xsdf.Node) {
		once.Do(cancel)
	}})
	defer restore()

	results, err := fw.DisambiguateBatchContext(ctx, trees, xsdf.BatchOptions{Workers: 1})
	var be *xsdf.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if got := be.Degraded(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Degraded() = %v, want [0]", got)
	}
	if got := be.Failed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Failed() = %v, want [1]", got)
	}
	if results[0] == nil || results[0].Unscored == 0 {
		t.Error("degraded slot must keep its partial result")
	}
	if results[1] != nil {
		t.Error("canceled undispatched slot must be nil")
	}
}

// TestOverloadPublicAPI: the gate rejects a concurrent arrival with
// ErrOverloaded and admits it again once capacity frees.
func TestOverloadPublicAPI(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{Admission: xsdf.AdmissionOptions{MaxDocs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	blocker := mustParse(t, fw, figure1a)
	hold := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	restore := core.SetTestHooks(core.TestHooks{BeforeTree: func(tr *xsdf.Tree) {
		if tr == blocker {
			close(started)
			<-hold
		}
	}})
	defer restore()
	go func() {
		defer close(done)
		fw.DisambiguateTree(blocker)
	}()
	<-started

	_, err = fw.DisambiguateString(figure1b)
	var oe *xsdf.OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, xsdf.ErrOverloaded) {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	if oe.Docs != 1 {
		t.Errorf("overload snapshot Docs = %d, want 1", oe.Docs)
	}

	close(hold)
	<-done
	if _, err := fw.DisambiguateString(figure1b); err != nil {
		t.Fatalf("after capacity frees the document must process: %v", err)
	}
}
