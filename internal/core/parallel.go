package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// ProcessTrees runs the pipeline over a batch of documents concurrently
// with the given number of workers (<= 0 selects GOMAXPROCS). It is
// ProcessTreesContext with a background context and no per-document
// deadline.
func (f *Framework) ProcessTrees(trees []*xmltree.Tree, workers int) ([]*Result, error) {
	return f.ProcessTreesContext(context.Background(), trees, workers, 0)
}

// ProcessTreesContext runs the pipeline over a batch of documents
// concurrently, fault-isolated per document. The semantic network is
// immutable and shared, and all workers memoize into the framework's
// shared similarity/vector cache (warm reads mostly take no lock), so
// repeated vocabulary across documents is scored once for the whole
// batch.
// Per-document state is limited to the disambiguation run's pooled
// document table.
//
// Failure semantics: each document succeeds or fails independently.
// Results are in input order; a slot is nil exactly when that document
// failed. When any document fails, the returned error is an
// *xsdferrors.BatchError whose Errs slice is indexed by document, so
// callers see every failure (not just the first) and can match typed
// causes with errors.Is/As:
//
//   - a worker panic is recovered and boxed as an *xsdferrors.PanicError
//     carrying the document index and stack — one poisoned document never
//     takes down the batch;
//   - a tree violating the resource guards fails with an
//     *xsdferrors.LimitError;
//   - docTimeout > 0 bounds each document's processing time; expiry fails
//     that document with xsdferrors.ErrCanceled (wrapping
//     context.DeadlineExceeded) — unless the degradation ladder is on, in
//     which case the document finishes at a cheaper rung and succeeds with
//     the achieved level in Result.Degraded;
//   - a document turned away by the admission gate fails with an
//     *xsdferrors.OverloadError;
//   - a document canceled mid-ladder keeps its partial Result in results
//     and fails with a *xsdferrors.DegradedError (the one error kind whose
//     result slot is non-nil — BatchError.Failed excludes it,
//     BatchError.Degraded lists it);
//   - cancelling ctx aborts the whole batch promptly: in-flight documents
//     stop at their next per-node check and documents nobody claimed fail
//     with xsdferrors.ErrCanceled.
//
// The caller and workers-1 goroutines claim document indices from one
// shared cursor, each polling ctx before every claim, so at most workers
// documents are in flight at once.
func (f *Framework) ProcessTreesContext(ctx context.Context, trees []*xmltree.Tree, workers int, docTimeout time.Duration) ([]*Result, error) {
	workers = min(EffectiveWorkers(workers), len(trees))
	results := make([]*Result, len(trees))
	if len(trees) == 0 {
		return results, nil
	}

	errs := make([]error, len(trees)) // slot i written only by the worker that claimed document i
	var next atomic.Int64
	done := ctx.Done()
	work := func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1) - 1)
			if i >= len(trees) {
				return
			}
			results[i], errs[i] = f.processOne(ctx, trees[i], i, docTimeout)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// Documents nobody claimed fail with the cancellation cause.
	for i := min(int(next.Load()), len(trees)); i < len(trees); i++ {
		errs[i] = xsdferrors.Canceled(ctx.Err())
	}
	if err := xsdferrors.NewBatchError(errs); err != nil {
		return results, err
	}
	return results, nil
}

// EffectiveWorkers normalizes a worker-count option: values <= 0 select
// GOMAXPROCS. Every worker-pool entry point — the core batch path here,
// the intra-document node pool (disambig.NewShared), and the public batch
// API — routes through this one rule, so the layers cannot drift apart in
// how they read "use all cores".
func EffectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// processOne runs one document with panic isolation and an optional
// per-document deadline.
func (f *Framework) processOne(ctx context.Context, t *xmltree.Tree, doc int, timeout time.Duration) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &xsdferrors.PanicError{Doc: doc, Value: v, Stack: debug.Stack()}
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err = f.ProcessTreeContext(ctx, t)
	// Stage panics arrive boxed by the pipeline middleware with no document
	// index (the pipeline is batch-agnostic); stamp this slot's index on.
	var pe *xsdferrors.PanicError
	if errors.As(err, &pe) && pe.Doc < 0 {
		pe.Doc = doc
	}
	return res, err
}
