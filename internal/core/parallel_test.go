package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

func corpusTrees(t testing.TB, n int) []*xmltree.Tree {
	t.Helper()
	var trees []*xmltree.Tree
	for _, d := range corpus.Generate(7) {
		trees = append(trees, d.Tree)
		if len(trees) == n {
			break
		}
	}
	return trees
}

func TestProcessTreesMatchesSequential(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := corpusTrees(t, 12)
	par := corpusTrees(t, 12)

	var seqAssigned []int
	for _, tr := range seq {
		res, err := fw.ProcessTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		seqAssigned = append(seqAssigned, res.Assigned)
	}
	results, err := fw.ProcessTrees(par, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("missing result %d", i)
		}
		if res.Assigned != seqAssigned[i] {
			t.Errorf("doc %d: parallel assigned %d, sequential %d", i, res.Assigned, seqAssigned[i])
		}
		// Sense assignments must be identical node-for-node.
		for j := 0; j < seq[i].Len(); j++ {
			if seq[i].Node(j).Sense != par[i].Node(j).Sense {
				t.Fatalf("doc %d node %d: %q vs %q", i, j,
					seq[i].Node(j).Sense, par[i].Node(j).Sense)
			}
		}
	}
}

// TestEffectiveWorkersNormalization pins the one worker-count rule every
// pool entry point shares (batch workers, intra-document node workers, and
// the server's default handler concurrency): non-positive values select
// GOMAXPROCS, and positive values — including 1 and values beyond the
// machine's core count — pass through untouched.
func TestEffectiveWorkersNormalization(t *testing.T) {
	ncpu := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		in   int
		want int
	}{
		{"negative", -1, ncpu},
		{"very-negative", -1 << 20, ncpu},
		{"zero", 0, ncpu},
		{"one", 1, 1},
		{"exactly-numcpu", ncpu, ncpu},
		{"beyond-numcpu", ncpu + 7, ncpu + 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := EffectiveWorkers(tc.in); got != tc.want {
				t.Errorf("EffectiveWorkers(%d) = %d, want %d", tc.in, got, tc.want)
			}
		})
	}
}

func TestProcessTreesEmptyAndDefaults(t *testing.T) {
	fw, _ := New(wordnet.Default(), DefaultOptions())
	res, err := fw.ProcessTrees(nil, 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	// workers <= 0 and workers > len are both legal.
	res, err = fw.ProcessTrees(corpusTrees(t, 2), 99)
	if err != nil || len(res) != 2 || res[0] == nil {
		t.Fatalf("tiny batch: %v %v", res, err)
	}
}

// TestProcessTreesInFlightBound: a batch runs at most Workers documents
// at once, the caller counted, and reaches that many. Each BeforeTree call
// holds its document until Workers are in flight (or a timeout passes),
// then a little longer, so a pool one worker short never fills and one
// worker over shows a higher peak.
func TestProcessTreesInFlightBound(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var inFlight, peak atomic.Int32
			full := make(chan struct{})
			var once sync.Once
			restore := SetTestHooks(TestHooks{BeforeTree: func(*xmltree.Tree) {
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				if n == int32(workers) {
					once.Do(func() { close(full) })
				}
				select {
				case <-full:
				case <-time.After(5 * time.Second):
				}
				time.Sleep(time.Millisecond)
			}})
			defer restore()
			results, err := fw.ProcessTrees(corpusTrees(t, 3*workers), workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r == nil {
					t.Fatalf("missing result %d", i)
				}
			}
			if got := peak.Load(); got != int32(workers) {
				t.Errorf("peak of %d documents in flight, want %d", got, workers)
			}
		})
	}
}

func BenchmarkProcessTreesWorkers(b *testing.B) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				trees := corpusTrees(b, 20)
				b.StartTimer()
				if _, err := fw.ProcessTrees(trees, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// poisonHook returns hooks that panic when processing any tree in bad.
func poisonHook(bad map[*xmltree.Tree]bool) TestHooks {
	return TestHooks{BeforeTree: func(t *xmltree.Tree) {
		if bad[t] {
			panic("injected fault")
		}
	}}
}

func TestBatchPanicIsolation(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trees := corpusTrees(t, 6)
	poisoned := trees[2]
	restore := SetTestHooks(poisonHook(map[*xmltree.Tree]bool{poisoned: true}))
	defer restore()

	results, err := fw.ProcessTrees(trees, 3)
	if err == nil {
		t.Fatal("a poisoned document must surface an error")
	}
	var be *xsdferrors.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %T: %v", err, err)
	}
	if got := be.Failed(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Failed() = %v, want [2]", got)
	}
	var pe *xsdferrors.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError in the chain: %v", err)
	}
	if pe.Doc != 2 || pe.Value != "injected fault" || len(pe.Stack) == 0 {
		t.Errorf("panic detail: doc=%d value=%v stack=%dB", pe.Doc, pe.Value, len(pe.Stack))
	}
	for i, r := range results {
		if i == 2 {
			if r != nil {
				t.Error("poisoned slot must be nil")
			}
			continue
		}
		if r == nil {
			t.Errorf("document %d lost to a neighbor's panic", i)
		}
	}
}

func TestBatchLimitIsolation(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxDepth = 8
	fw, err := New(wordnet.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	trees := corpusTrees(t, 3)
	// Graft a chain deeper than the guard onto a fresh tree.
	deepRoot := &xmltree.Node{Raw: "a", Label: "a", Kind: xmltree.Element}
	cur := deepRoot
	for i := 0; i < 20; i++ {
		child := &xmltree.Node{Raw: "a", Label: "a", Kind: xmltree.Element}
		cur.AddChild(child)
		cur = child
	}
	trees = append(trees, xmltree.New(deepRoot))

	results, err := fw.ProcessTrees(trees, 2)
	var le *xsdferrors.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.Limit != "depth" {
		t.Errorf("tripped %q, want depth", le.Limit)
	}
	if results[3] != nil {
		t.Error("over-limit slot must be nil")
	}
	for i := 0; i < 3; i++ {
		if results[i] == nil {
			t.Errorf("document %d lost to a neighbor's limit violation", i)
		}
	}
}

func TestBatchCancellationPrompt(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trees := corpusTrees(t, 8)
	started := make(chan struct{}, len(trees)*64)
	restore := SetTestHooks(TestHooks{BeforeNode: func(*xmltree.Node) {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}})
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // cancel once the first node is being processed
		cancel()
	}()
	begin := time.Now()
	results, err := fw.ProcessTreesContext(ctx, trees, 2, 0)
	elapsed := time.Since(begin)

	if !errors.Is(err, xsdferrors.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("the context cause must stay matchable")
	}
	// Cooperative checks run per node; the abort must land well within one
	// document's total processing time (hundreds of 2ms-sleep nodes).
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if len(results) != len(trees) {
		t.Fatalf("results length %d", len(results))
	}
}

func TestBatchPerDocumentTimeout(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trees := corpusTrees(t, 3)
	slow := trees[1]
	// A hook-held barrier instead of wall-clock sleeps: the slow
	// document's first node parks until its per-document deadline has
	// provably expired, so the timeout trips deterministically no matter
	// how loaded the machine is, while the generous budget keeps the fast
	// neighbors far from their own deadlines.
	const docTimeout = 300 * time.Millisecond
	held := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := SetTestHooks(TestHooks{BeforeNode: func(n *xmltree.Node) {
		if root(n) == slow.Root {
			once.Do(func() { close(held) })
			<-release
		}
	}})
	defer restore()
	go func() {
		<-held
		// The slow document's deadline started at most docTimeout before
		// the hold; by now + docTimeout + margin it has certainly passed.
		time.Sleep(docTimeout + 100*time.Millisecond)
		close(release)
	}()

	results, err := fw.ProcessTreesContext(context.Background(), trees, 2, docTimeout)
	if !errors.Is(err, xsdferrors.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline-flavored ErrCanceled, got %v", err)
	}
	var be *xsdferrors.BatchError
	if !errors.As(err, &be) {
		t.Fatal("want *BatchError")
	}
	if got := be.Failed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Failed() = %v, want [1]", got)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("fast documents must survive a slow neighbor's timeout")
	}
}

func root(n *xmltree.Node) *xmltree.Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}
