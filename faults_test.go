package xsdf_test

// Fault-tolerance acceptance tests for the public API: typed option
// errors, resource guards, panic isolation, batch partial failure, and
// cooperative cancellation.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

func TestUnknownOptionRejected(t *testing.T) {
	_, err := xsdf.New(xsdf.Options{VectorSimilarity: "euclidean"})
	if !errors.Is(err, xsdf.ErrUnknownOption) {
		t.Fatalf("want ErrUnknownOption, got %v", err)
	}
	if !strings.Contains(err.Error(), "euclidean") {
		t.Errorf("error must name the bad value: %v", err)
	}
	if _, err := xsdf.New(xsdf.Options{Method: xsdf.Method(42)}); !errors.Is(err, xsdf.ErrUnknownOption) {
		t.Errorf("bad Method: want ErrUnknownOption, got %v", err)
	}
	// The documented values still work, case-insensitively.
	for _, v := range []string{"", "cosine", "Jaccard", "PEARSON"} {
		if _, err := xsdf.New(xsdf.Options{VectorSimilarity: v}); err != nil {
			t.Errorf("VectorSimilarity %q rejected: %v", v, err)
		}
	}
}

// TestNaNSelectionOptionsRejected: a NaN ambiguity weight, threshold or
// AutoThresholdK would make every document select no target while
// reporting success, so New rejects each with ErrUnknownOption.
func TestNaNSelectionOptionsRejected(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		set  func(*xsdf.Options)
	}{
		{"polysemy-weight", func(o *xsdf.Options) { o.AmbiguityWeights.Polysemy = nan }},
		{"depth-weight", func(o *xsdf.Options) { o.AmbiguityWeights.Depth = nan }},
		{"density-weight", func(o *xsdf.Options) { o.AmbiguityWeights.Density = nan }},
		{"threshold", func(o *xsdf.Options) { o.Threshold = nan }},
		{"polysemy-weight-auto-threshold", func(o *xsdf.Options) {
			o.AmbiguityWeights.Polysemy = nan
			o.AutoThreshold = true
		}},
		{"auto-threshold-k", func(o *xsdf.Options) {
			o.AutoThreshold = true
			o.AutoThresholdK = nan
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var o xsdf.Options
			c.set(&o)
			if _, err := xsdf.New(o); !errors.Is(err, xsdf.ErrUnknownOption) {
				t.Errorf("want ErrUnknownOption, got %v", err)
			}
		})
	}
	// The finite versions of the same options still select targets.
	o := xsdf.Options{Threshold: 0.1, AutoThresholdK: 0.5}
	o.AmbiguityWeights.Polysemy = 1
	for _, auto := range []bool{false, true} {
		o.AutoThreshold = auto
		fw, err := xsdf.New(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fw.DisambiguateString(figure1a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Targets == 0 || res.Assigned == 0 {
			t.Errorf("auto threshold %v: %d targets, %d assigned", auto, res.Targets, res.Assigned)
		}
	}
}

func TestLinkResolutionReported(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{FollowLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.DisambiguateString(`<films>
	  <picture id="p1"><genre>mystery</genre></picture>
	  <review ref="#p1">classic</review>
	  <review ref="#missing">dangling</review>
	</films>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinksResolved != 1 {
		t.Errorf("LinksResolved = %d, want 1", res.LinksResolved)
	}
	if res.LinksDangling != 1 {
		t.Errorf("LinksDangling = %d, want 1", res.LinksDangling)
	}
}

func TestParseGuardsPublicAPI(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{MaxDepth: 4, MaxTokenBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	deep := strings.Repeat("<a>", 8) + strings.Repeat("</a>", 8)
	_, err = fw.DisambiguateString(deep)
	var le *xsdf.LimitError
	if !errors.As(err, &le) || le.Limit != "depth" {
		t.Fatalf("deep doc: want depth *LimitError, got %v", err)
	}
	_, err = fw.DisambiguateString(`<a b="` + strings.Repeat("x", 64) + `"/>`)
	if !errors.As(err, &le) || le.Limit != "token-bytes" {
		t.Fatalf("huge attribute: want token-bytes *LimitError, got %v", err)
	}
	if _, err := fw.DisambiguateString("<a><b>ok</b></a>"); err != nil {
		t.Fatalf("benign doc rejected: %v", err)
	}
	if _, err := fw.DisambiguateString("<truncated"); !errors.Is(err, xsdf.ErrMalformedInput) {
		t.Fatalf("truncated doc: want ErrMalformedInput, got %v", err)
	}
}

// deepChain builds an in-memory tree deeper than the given element limit,
// standing in for a pre-parsed document that bypassed parse guards.
func deepChain(depth int) *xsdf.Tree {
	root := &xsdf.Node{Raw: "a", Label: "a", Kind: xsdf.ElementNode}
	cur := root
	for i := 0; i < depth; i++ {
		child := &xsdf.Node{Raw: "a", Label: "a", Kind: xsdf.ElementNode}
		cur.AddChild(child)
		cur = child
	}
	tr := &xsdf.Tree{Root: root}
	tr.Reindex()
	return tr
}

// TestBatchFaultToleranceAcceptance is the issue's acceptance scenario: a
// batch where one document panics and another exceeds MaxDepth completes,
// returns the other documents' results, and reports both failures as
// distinct typed errors matchable with errors.As.
func TestBatchFaultToleranceAcceptance(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{MaxDepth: 50})
	if err != nil {
		t.Fatal(err)
	}
	good1, err := fw.ParseTree(strings.NewReader(figure1a))
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := fw.ParseTree(strings.NewReader(figure1b))
	if err != nil {
		t.Fatal(err)
	}
	good2, err := fw.ParseTree(strings.NewReader(figure1a))
	if err != nil {
		t.Fatal(err)
	}
	trees := []*xsdf.Tree{good1, poisoned, deepChain(60), good2}

	restore := core.SetTestHooks(core.TestHooks{BeforeTree: func(tr *xsdf.Tree) {
		if tr == poisoned {
			panic("poisoned document")
		}
	}})
	defer restore()

	results, err := fw.DisambiguateBatchContext(context.Background(), trees, xsdf.BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("batch with two failing documents must report an error")
	}

	var be *xsdf.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %T: %v", err, err)
	}
	if got := be.Failed(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Failed() = %v, want [1 2]", got)
	}
	var pe *xsdf.PanicError
	if !errors.As(err, &pe) || pe.Doc != 1 {
		t.Fatalf("want *PanicError for document 1, got %v (doc %d)", err, pe.Doc)
	}
	var le *xsdf.LimitError
	if !errors.As(err, &le) || le.Limit != "depth" {
		t.Fatalf("want depth *LimitError, got %v", err)
	}
	if !errors.Is(err, xsdf.ErrLimitExceeded) {
		t.Error("sentinel ErrLimitExceeded must match through the batch error")
	}

	if results[1] != nil || results[2] != nil {
		t.Error("failed slots must be nil")
	}
	for _, i := range []int{0, 3} {
		if results[i] == nil || results[i].Assigned == 0 {
			t.Errorf("healthy document %d lost its result", i)
		}
	}
}

func TestSingleDocumentPanicIsolated(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	restore := core.SetTestHooks(core.TestHooks{BeforeTree: func(*xsdf.Tree) { panic("boom") }})
	defer restore()
	res, err := fw.DisambiguateContext(context.Background(), strings.NewReader(figure1a))
	var pe *xsdf.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got res=%v err=%v", res, err)
	}
	if pe.Doc != -1 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic detail: %+v", pe)
	}
}

func TestCancellationPublicAPI(t *testing.T) {
	fw, err := xsdf.New(xsdf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.DisambiguateContext(ctx, strings.NewReader(figure1a)); !errors.Is(err, xsdf.ErrCanceled) {
		t.Fatalf("single doc: want ErrCanceled, got %v", err)
	}

	// Deadline flavor via per-document batch timeouts: a slowed document
	// times out without harming its neighbors.
	trees := []*xsdf.Tree{mustParse(t, fw, figure1a), mustParse(t, fw, figure1b)}
	slow := trees[1]
	restore := core.SetTestHooks(core.TestHooks{BeforeNode: func(n *xsdf.Node) {
		cur := n
		for cur.Parent != nil {
			cur = cur.Parent
		}
		if cur == slow.Root {
			time.Sleep(3 * time.Millisecond)
		}
	}})
	defer restore()
	results, err := fw.DisambiguateBatchContext(context.Background(), trees,
		xsdf.BatchOptions{Workers: 2, DocTimeout: 30 * time.Millisecond})
	if !errors.Is(err, xsdf.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline-flavored ErrCanceled, got %v", err)
	}
	if results[0] == nil {
		t.Error("fast document must survive the slow one's timeout")
	}
	if results[1] != nil {
		t.Error("timed-out slot must be nil")
	}
}

func mustParse(t *testing.T, fw *xsdf.Framework, doc string) *xsdf.Tree {
	t.Helper()
	tr, err := fw.ParseTree(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
