package disambig

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/lingproc"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// linkedDoc carries an ID/IDREF hyperlink so FollowLinks configurations
// exercise the graph sphere, and a compound label whose two tokens are
// both known ("star rating"), so sense pairs (Eqs. 10 and 12) are scored.
const linkedDoc = `<root>
  <credits><cast id="c1"><star>stewart</star><star>kelly</star></cast></credits>
  <films>
    <picture title="Rear Window">
      <director>Hitchcock</director>
      <genre>mystery</genre>
      <StarRating>4</StarRating>
      <plot>A wheelchair bound photographer spies on his neighbors</plot>
    </picture>
  </films>
  <notes><entry idref="c1"><subject>kelly</subject><topic>play</topic></entry></notes>
</root>`

// goldenTargets returns every node of the processed golden tree — what a
// pipeline run would consider (elements, attributes, tokens all included).
func goldenTargets(t *testing.T, followLinks bool) []*xmltree.Node {
	t.Helper()
	return goldenTree(t, followLinks).Nodes()
}

// goldenTree parses and processes linkedDoc, resolving its hyperlink when
// followLinks is set.
func goldenTree(t *testing.T, followLinks bool) *xmltree.Tree {
	t.Helper()
	tr := parse(t, linkedDoc)
	if followLinks {
		if n, err := tr.ResolveLinks(); err != nil || n != 1 {
			t.Fatalf("links: %d %v", n, err)
		}
	}
	return tr
}

// TestGoldenCachedVsBypass asserts that the fully-cached scoring path and
// the reference scorer (reference_test.go: every similarity, vector, and
// context recomputed from scratch, one candidate at a time) produce
// identical senses and bit-identical scores, for Node and every
// candidate of Candidates, across all three methods and both sphere
// models. This is the correctness contract of the shared caching layer
// and the block scorer: memoization must be invisible in the output.
func TestGoldenCachedVsBypass(t *testing.T) {
	net := wordnet.Default()
	for _, method := range []Method{ConceptBased, ContextBased, Combined} {
		for _, followLinks := range []bool{false, true} {
			name := method.String()
			if followLinks {
				name += "-links"
			}
			t.Run(name, func(t *testing.T) {
				cached := New(net, Options{
					Radius:        2,
					Method:        method,
					SimWeights:    simmeasure.EqualWeights(),
					ConceptWeight: 0.5,
					ContextWeight: 0.5,
					FollowLinks:   followLinks,
				})
				compared := 0
				for _, n := range goldenTargets(t, followLinks) {
					// Twice: the second call reads warm memos and
					// rebuilds the context in reused scratch.
					for call := 1; call <= 2; call++ {
						if err := nodeMatchesReference(cached, n); err != nil {
							t.Errorf("call %d: %v", call, err)
						}
					}
					if _, ok := cached.Node(n); ok {
						compared++
					}
				}
				if compared == 0 {
					t.Fatal("golden doc produced no disambiguated nodes")
				}
			})
		}
	}
}

// TestSharedCacheAcrossDocuments proves the point of the shared layer:
// a second document with the same vocabulary hits the warm memos, and its
// results are identical to those from a cold cache.
func TestSharedCacheAcrossDocuments(t *testing.T) {
	net := wordnet.Default()
	opts := Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 0.5, ContextWeight: 0.5}
	shared := NewCache(net, opts.SimWeights)

	docs := corpus.GenerateDataset(11, 2)
	for i := range docs {
		lingproc.ProcessTree(docs[i].Tree, net)
	}
	// Cold reference: each document gets its own cache.
	var coldSenses [][]string
	for _, d := range docs {
		clone := d.Tree.Clone()
		New(net, opts).Apply(clone.Nodes())
		var senses []string
		for _, n := range clone.Nodes() {
			senses = append(senses, n.Sense)
		}
		coldSenses = append(coldSenses, senses)
	}
	// Shared: both documents flow through one cache.
	for i, d := range docs {
		dis := NewShared(shared, opts)
		if n := dis.Apply(d.Tree.Nodes()); n == 0 {
			t.Fatal("nothing assigned")
		}
		for j, n := range d.Tree.Nodes() {
			if n.Sense != coldSenses[i][j] {
				t.Fatalf("doc %d node %d: shared-cache sense %q, cold %q", i, j, n.Sense, coldSenses[i][j])
			}
		}
	}
	st := shared.Stats()
	if st.SimHits == 0 {
		t.Error("second document should hit the shared Sim cache")
	}
	if st.SimMisses == 0 {
		t.Error("stats should record the cold misses too")
	}
	if opts.Method != ConceptBased && st.VectorMisses == 0 {
		t.Error("context-based scoring should populate the vector cache")
	}
	t.Logf("shared cache stats: %+v", st)
}

// TestWarmVectorLookupAllocationFree is the vector-memo companion of
// simmeasure's TestWarmSimLookupAllocationFree: once the per-radius table
// holds a sample of single senses and compound pairs, sweeping them again
// — through the disambiguator's table and through the public lookups —
// performs zero heap allocations.
func TestWarmVectorLookupAllocationFree(t *testing.T) {
	net := wordnet.Default()
	c := NewCache(net, simmeasure.EqualWeights())
	d := NewShared(c, Options{Radius: 2})
	var ids []semnet.DenseID
	for i := range 40 {
		ids = append(ids, semnet.DenseID(i*net.Len()/40))
	}
	var tl cacheTally
	sweep := func() {
		for _, p := range ids {
			benchSink += d.conceptVectorD(p, &tl).norm2
			benchSink += float64(c.ConceptVectorDense(p, 2).Len())
			for _, q := range ids[:8] {
				benchSink += d.pairVectorD(p, q, &tl).norm2
				benchSink += d.pairVectorD(q, p, &tl).norm2
			}
		}
	}
	sweep()
	tl = cacheTally{}
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Errorf("warm vector-table sweep allocates %.1f times, want 0", allocs)
	}
	if tl.vecMisses != 0 || tl.vecHits == 0 {
		t.Errorf("warm sweeps tallied %d hits and %d misses, want only hits", tl.vecHits, tl.vecMisses)
	}
}

// TestVectorTableConcurrentFills: goroutines sharing one fresh table race
// the fills of the same single senses and compound pairs (each sweeping
// from a different starting point, pairs in both argument orders); every
// read must equal the uncached vector bit for bit, and every pair row
// must end up holding each pair once. Run under -race.
func TestVectorTableConcurrentFills(t *testing.T) {
	const workers = 4
	net := wordnet.Default()
	vt := NewCache(net, simmeasure.EqualWeights()).table(2)
	var ids []semnet.DenseID
	for i := range 24 {
		ids = append(ids, semnet.DenseID(i*net.Len()/24))
	}
	same := func(got normedVector, want sphere.Vector) bool {
		if !slices.Equal(got.Dims, want.Dims) || len(got.Weights) != len(want.Weights) ||
			math.Float64bits(got.norm2) != math.Float64bits(sphere.SquaredNorm(want)) {
			return false
		}
		for i, w := range want.Weights {
			if math.Float64bits(got.Weights[i]) != math.Float64bits(w) {
				return false
			}
		}
		return true
	}
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s sphere.ConceptScratch
			for k := range ids {
				p := ids[(k+w*len(ids)/workers)%len(ids)]
				if v, _ := vt.concept(p); !same(v, sphere.ConceptVectorInto(net, p, 2, &s)) {
					errs <- fmt.Sprintf("worker %d: vector of %d differs from the uncached one", w, p)
					return
				}
				for _, q := range ids[:6] {
					a, b := p, q
					if w%2 == 1 {
						a, b = q, p
					}
					lo, hi := min(p, q), max(p, q)
					if v, _ := vt.pair(a, b); !same(v, sphere.CombinedConceptVectorInto(net, lo, hi, 2, &s)) {
						errs <- fmt.Sprintf("worker %d: vector of pair (%d, %d) differs from the uncached one", w, a, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for p := range vt.pairs {
		row := vt.pairs[p].Load()
		if row == nil {
			continue
		}
		seen := map[semnet.DenseID]bool{}
		for _, e := range *row {
			if seen[e.q] || e.q < semnet.DenseID(p) {
				t.Errorf("row %d: pair (%d, %d) duplicated or not canonical", p, p, e.q)
			}
			seen[e.q] = true
		}
	}
}

// TestSharedDisambiguatorConcurrent shares ONE Disambiguator (and so one
// cache) across goroutines disambiguating the same targets, and checks
// every goroutine sees the serial answers. Run under -race this is the
// regression test for the latent data race the per-document
// unsynchronized maps used to carry.
func TestSharedDisambiguatorConcurrent(t *testing.T) {
	net := wordnet.Default()
	opts := Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 0.5, ContextWeight: 0.5}

	tr := parse(t, figure1Doc)
	targets := tr.Nodes()

	// Serial golden answers from a private disambiguator.
	golden := make(map[*xmltree.Node]string)
	ref := New(net, opts)
	for _, n := range targets {
		if s, ok := ref.Node(n); ok {
			golden[n] = s.ID()
		}
	}

	shared := New(net, opts)
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range targets {
				s, ok := shared.Node(n)
				if want, wantOK := golden[n]; ok != wantOK || (ok && s.ID() != want) {
					errc <- errors.New("concurrent result diverged from serial: " + n.Label)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestApplyParallelMatchesSerial runs ApplyContext with a worker pool and
// checks node-for-node sense equality with the serial loop.
func TestApplyParallelMatchesSerial(t *testing.T) {
	net := wordnet.Default()
	docs := corpus.GenerateDataset(1, 1)
	serialTree := docs[0].Tree
	lingproc.ProcessTree(serialTree, net)
	parallelTree := serialTree.Clone()

	serialOpts := Options{Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()}
	parallelOpts := serialOpts
	parallelOpts.Workers = 4

	nSerial := New(net, serialOpts).Apply(serialTree.Nodes())
	nParallel := New(net, parallelOpts).Apply(parallelTree.Nodes())
	if nSerial == 0 || nSerial != nParallel {
		t.Fatalf("assigned: serial %d, parallel %d", nSerial, nParallel)
	}
	for i := 0; i < serialTree.Len(); i++ {
		s, p := serialTree.Node(i), parallelTree.Node(i)
		if s.Sense != p.Sense || s.SenseScore != p.SenseScore {
			t.Fatalf("node %d (%s): serial %q/%.17g, parallel %q/%.17g",
				i, s.Label, s.Sense, s.SenseScore, p.Sense, p.SenseScore)
		}
	}
}

// TestApplyParallelPanicPropagates: a NodeHook panic on a worker must
// surface as a panic on the calling goroutine with the original value, so
// the pipeline's recover seams box it exactly like a serial panic.
func TestApplyParallelPanicPropagates(t *testing.T) {
	net := wordnet.Default()
	tr := parse(t, figure1Doc)
	var once sync.Once
	d := New(net, Options{
		Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights(),
		Workers: 3,
		NodeHook: func(n *xmltree.Node) {
			once.Do(func() { panic("injected node fault") })
		},
	})
	defer func() {
		v := recover()
		if v != "injected node fault" {
			t.Fatalf("recovered %v, want the injected fault value", v)
		}
	}()
	d.Apply(tr.Nodes())
	t.Fatal("Apply must panic")
}

// TestApplyParallelPanicStopsNodeHooks: once a node-worker panic reaches
// the caller, every worker has returned — no NodeHook call is still
// running, and none starts afterwards. The calling goroutine, which claims
// targets too, panics while the other workers sit in their hooks, so a
// caller that re-raised the panic without waiting for them would find
// them running.
func TestApplyParallelPanicStopsNodeHooks(t *testing.T) {
	net := wordnet.Default()
	tr := corpus.GenerateDataset(1, 1)[0].Tree
	lingproc.ProcessTree(tr, net)
	const workers = 4
	var running, calls atomic.Int32
	d := New(net, Options{
		Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights(),
		Workers: workers,
		NodeHook: func(*xmltree.Node) {
			running.Add(1)
			defer running.Add(-1)
			calls.Add(1)
			// Only the calling goroutine's stack holds the test's frame.
			if !strings.Contains(string(debug.Stack()), ".TestApplyParallelPanicStopsNodeHooks(") {
				time.Sleep(20 * time.Millisecond)
				return
			}
			for wait := time.Now().Add(5 * time.Second); running.Load() < workers && time.Now().Before(wait); {
				time.Sleep(100 * time.Microsecond)
			}
			panic("injected node fault")
		},
	})
	func() {
		defer func() {
			if v := recover(); v != "injected node fault" {
				t.Fatalf("recovered %v, want the injected fault value", v)
			}
		}()
		d.Apply(tr.Nodes())
		t.Fatal("Apply must panic")
	}()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d NodeHook calls still running after the panic reached the caller", n)
	}
	after := calls.Load()
	time.Sleep(50 * time.Millisecond)
	if n := calls.Load() - after; n != 0 {
		t.Errorf("%d NodeHook calls started after the panic reached the caller", n)
	}
}

// panicInNodeHook is a NodeHook that panics, named so a stack trace shows
// its frame.
func panicInNodeHook(*xmltree.Node) { panic("injected node fault") }

// TestApplyReportOneWorkerPanicKeepsStack: a one-worker run recovers
// nothing, so the panic reaching the caller still carries the panicking
// frame in its stack.
func TestApplyReportOneWorkerPanicKeepsStack(t *testing.T) {
	tr := parse(t, figure1Doc)
	d := New(wordnet.Default(), Options{
		Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights(),
		Workers: 1, NodeHook: panicInNodeHook,
	})
	defer func() {
		v := recover()
		if v != "injected node fault" {
			t.Fatalf("recovered %v, want the injected fault value", v)
		}
		if stack := string(debug.Stack()); !strings.Contains(stack, "panicInNodeHook") {
			t.Errorf("stack lost the panicking frame:\n%s", stack)
		}
	}()
	d.ApplyReport(context.Background(), tr.Nodes())
	t.Fatal("ApplyReport must panic")
}

// TestApplyParallelCancellation: cancelling mid-run aborts promptly with
// ErrCanceled, and already-processed nodes keep their senses.
func TestApplyParallelCancellation(t *testing.T) {
	net := wordnet.Default()
	docs := corpus.GenerateDataset(1, 1)
	tr := docs[0].Tree
	lingproc.ProcessTree(tr, net)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	d := New(net, Options{
		Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights(),
		Workers: 3,
		NodeHook: func(n *xmltree.Node) {
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(time.Millisecond)
		},
	})
	go func() {
		<-started
		cancel()
	}()
	begin := time.Now()
	_, err := d.ApplyContext(ctx, tr.Nodes())
	if !errors.Is(err, xsdferrors.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}
