package disambig

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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
// exercise the graph sphere.
const linkedDoc = `<root>
  <credits><cast id="c1"><star>stewart</star><star>kelly</star></cast></credits>
  <films>
    <picture title="Rear Window">
      <director>Hitchcock</director>
      <genre>mystery</genre>
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
// a cache-bypass path (every similarity, vector, and context recomputed
// from scratch on each call) produce identical senses and bit-identical
// scores, across all three methods and both sphere models. This is the
// correctness contract of the shared caching layer: memoization must be
// invisible in the output.
func TestGoldenCachedVsBypass(t *testing.T) {
	net := wordnet.Default()
	for _, method := range []Method{ConceptBased, ContextBased, Combined} {
		for _, followLinks := range []bool{false, true} {
			name := method.String()
			if followLinks {
				name += "-links"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{
					Radius:        2,
					Method:        method,
					SimWeights:    simmeasure.EqualWeights(),
					ConceptWeight: 0.5,
					ContextWeight: 0.5,
					FollowLinks:   followLinks,
				}
				cached := New(net, opts)
				bypass := New(net, opts)
				bypass.bypassCache = true

				targets := goldenTargets(t, followLinks)
				compared := 0
				for _, n := range targets {
					sc, okC := cached.Node(n)
					sb, okB := bypass.Node(n)
					if okC != okB {
						t.Fatalf("node %q: cached ok=%v bypass ok=%v", n.Label, okC, okB)
					}
					if !okC {
						continue
					}
					compared++
					if sc.ID() != sb.ID() {
						t.Errorf("node %q: cached sense %s, bypass %s", n.Label, sc.ID(), sb.ID())
					}
					if sc.Score != sb.Score {
						t.Errorf("node %q: cached score %.17g, bypass %.17g", n.Label, sc.Score, sb.Score)
					}
					// Re-score the winner through the public per-candidate
					// APIs: a context rebuilt per call must return the same
					// numbers every time.
					if len(sc.Concepts) == 1 {
						if a, b := cached.ConceptScore(sc.Concepts[0], n), cached.ConceptScore(sc.Concepts[0], n); a != b {
							t.Errorf("node %q: ConceptScore unstable across calls: %g vs %g", n.Label, a, b)
						}
						if a, b := cached.ContextScore(sc.Concepts[0], n), bypass.ContextScore(sc.Concepts[0], n); a != b {
							t.Errorf("node %q: ContextScore cached %g bypass %g", n.Label, a, b)
						}
					} else {
						if a, b := cached.ConceptScoreCompound(sc.Concepts[0], sc.Concepts[1], n),
							bypass.ConceptScoreCompound(sc.Concepts[0], sc.Concepts[1], n); a != b {
							t.Errorf("node %q: compound concept score cached %g bypass %g", n.Label, a, b)
						}
						if a, b := cached.ContextScoreCompound(sc.Concepts[0], sc.Concepts[1], n),
							bypass.ContextScoreCompound(sc.Concepts[0], sc.Concepts[1], n); a != b {
							t.Errorf("node %q: compound context score cached %g bypass %g", n.Label, a, b)
						}
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
				benchSink += float64(c.PairVectorDense(q, p, 2).Len())
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
