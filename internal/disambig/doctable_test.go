package disambig

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/lingproc"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
)

// aboveCapDoc returns a processed tree naming every single-word
// polysemous lemma of the lexicon, eight to a section: its word matrix
// (rows = their senses, columns = their lemmas) is far above matrixCap.
func aboveCapDoc(t *testing.T) *xmltree.Tree {
	t.Helper()
	net := wordnet.Default()
	root := &xmltree.Node{Raw: "catalog", Kind: xmltree.Element}
	var section *xmltree.Node
	words := 0
	for _, l := range net.Lemmas() {
		if strings.Contains(l, " ") || len(net.Senses(l)) < 2 {
			continue
		}
		if words%8 == 0 {
			section = &xmltree.Node{Raw: "section", Kind: xmltree.Element}
			root.AddChild(section)
		}
		section.AddChild(&xmltree.Node{Raw: l, Kind: xmltree.Token})
		words++
	}
	tr := xmltree.New(root)
	lingproc.ProcessTree(tr, net)
	return tr
}

// mutatedDoc returns the golden tree with a node added after indexing, so
// its Index fields are no longer the preorder ranks.
func mutatedDoc(t *testing.T, followLinks bool) *xmltree.Tree {
	t.Helper()
	tr := goldenTree(t, followLinks)
	cast := find(t, tr, "cast")
	cast.AddChild(&xmltree.Node{Raw: "kelly", Label: "kelly", Tokens: []string{"kelly"}, Kind: xmltree.Token})
	return tr
}

// TestGoldenDocumentPathVsBypass is the golden contract of the document
// path: ApplyReport, scoring every target on the document table and its
// word matrix, assigns each node exactly the sense and score bits the
// reference scorer computes — for the three methods, tree and graph
// spheres, serial and parallel node workers, a document above the matrix
// cap, and a tree mutated without Reindex (which the table refuses, so
// every target gets its context from the per-node build).
func TestGoldenDocumentPathVsBypass(t *testing.T) {
	net := wordnet.Default()
	docs := []struct {
		name  string
		build func(t *testing.T, followLinks bool) *xmltree.Tree
		table string // "matrix", "no-matrix" or "none"
	}{
		{"golden", goldenTree, "matrix"},
		{"above-cap", func(t *testing.T, _ bool) *xmltree.Tree { return aboveCapDoc(t) }, "no-matrix"},
		{"mutated", mutatedDoc, "none"},
	}
	for _, doc := range docs {
		for _, method := range []Method{ConceptBased, ContextBased, Combined} {
			for _, followLinks := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/links=%v/workers=%d", doc.name, method, followLinks, workers)
					t.Run(name, func(t *testing.T) {
						opts := Options{
							Radius:        2,
							Method:        method,
							SimWeights:    simmeasure.EqualWeights(),
							ConceptWeight: 0.5,
							ContextWeight: 0.5,
							FollowLinks:   followLinks,
							Workers:       workers,
						}
						cached := New(net, opts)
						tr := doc.build(t, followLinks)
						targets := treeNodes(tr.Root)
						checkTableKind(t, cached, targets, doc.table)
						assigned, err := matchesReference(cached, targets)
						if err != nil {
							t.Fatal(err)
						}
						if assigned == 0 {
							t.Fatal("no node was assigned")
						}
					})
				}
			}
		}
	}
}

// matchesReference scores targets with d's ApplyReport and checks every
// node's sense and score bits against the reference scorer under the same
// options, and the report's assigned count. It returns the number of
// assigned targets.
func matchesReference(d *Disambiguator, targets []*xmltree.Node) (int, error) {
	type ref struct {
		sense Sense
		ok    bool
	}
	want := make([]ref, len(targets))
	for i, n := range targets {
		want[i].sense, want[i].ok = refNode(d, n)
	}
	rep, err := d.ApplyReport(context.Background(), targets)
	if err != nil {
		return 0, err
	}
	var errs []error
	assigned := 0
	for i, n := range targets {
		w := want[i]
		if !w.ok {
			if n.Sense != "" {
				errs = append(errs, fmt.Errorf("node %d %q: document path assigned %s, reference none", i, n.Label, n.Sense))
			}
			continue
		}
		assigned++
		if n.Sense != w.sense.ID() || math.Float64bits(n.SenseScore) != math.Float64bits(w.sense.Score) {
			errs = append(errs, fmt.Errorf("node %d %q: document path %s %.17g, reference %s %.17g",
				i, n.Label, n.Sense, n.SenseScore, w.sense.ID(), w.sense.Score))
		}
	}
	if rep.Assigned != assigned {
		errs = append(errs, fmt.Errorf("assigned %d, report %d", assigned, rep.Assigned))
	}
	return assigned, errors.Join(errs...)
}

// treeNodes lists the nodes under root in preorder by walking Children,
// whatever their Index fields say.
func treeNodes(root *xmltree.Node) []*xmltree.Node {
	out := []*xmltree.Node{root}
	for _, c := range root.Children {
		out = append(out, treeNodes(c)...)
	}
	return out
}

// checkTableKind asserts which path a run over targets takes.
func checkTableKind(t *testing.T, d *Disambiguator, targets []*xmltree.Node, kind string) {
	t.Helper()
	tab := d.docTableFor(targets)
	defer tab.release()
	got := "none"
	switch {
	case tab != nil && len(tab.cells) > 0:
		got = "matrix"
	case tab != nil:
		got = "no-matrix"
	}
	if got != kind {
		t.Fatalf("document table: %s, want %s", got, kind)
	}
}

// TestDocumentContextMatchesReference checks the document path's context
// build against the per-node build for every node of three scaled
// corpora, at radius 1–3, over tree and graph spheres.
func TestDocumentContextMatchesReference(t *testing.T) {
	net := wordnet.Default()
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		docs := corpus.GenerateScaled(seed, 2)
		for _, doc := range docs {
			lingproc.ProcessTree(doc.Tree, net)
		}
		for radius := 1; radius <= 3; radius++ {
			for _, followLinks := range []bool{false, true} {
				d := New(net, Options{Radius: radius, FollowLinks: followLinks})
				for _, doc := range docs {
					tr := doc.Tree
					if followLinks {
						tr = tr.Clone()
						addSyntheticLinks(tr)
					}
					if err := contextsMatch(d, tr.Nodes()); err != nil {
						t.Fatalf("seed %d %s radius %d links %v: %v", seed, doc.Name, radius, followLinks, err)
					}
				}
			}
		}
	}
}

// addSyntheticLinks joins every fifth element to one further along the
// preorder, both ways, as ResolveLinks would (the corpus has no ID/IDREF).
func addSyntheticLinks(tr *xmltree.Tree) {
	var elems []*xmltree.Node
	for _, n := range tr.Nodes() {
		if n.Kind == xmltree.Element {
			elems = append(elems, n)
		}
	}
	for i := 0; i+3 < len(elems); i += 5 {
		a, b := elems[i], elems[(i*7+3)%len(elems)]
		if a != b {
			a.Links = append(a.Links, b)
			b.Links = append(b.Links, a)
		}
	}
}

// contextsMatch builds the document table of nodes and compares, for every
// node, the table's sphere and context with the per-node build: members
// (position = Index, distance), size, per-member weights and lemma ids by
// value, and vector weights and squared norm by bits, with dimensions
// compared through their labels (unknown labels are ranked per sphere in
// one build and per document in the other). The context's local
// dimensions must name its label dimensions, and the build must leave the
// accumulator all zero.
func contextsMatch(d *Disambiguator, nodes []*xmltree.Node) error {
	tab := d.docTableFor(nodes)
	if tab == nil {
		return fmt.Errorf("no document table")
	}
	defer tab.release()
	base := int32(d.net.NumLabels())
	tabLabel := map[int32]string{}
	for pos, dim := range tab.dims {
		if dim >= base {
			tabLabel[dim] = tab.nodes[pos].Label
		}
	}
	var (
		ps        sphere.PosScratch
		ss        sphere.Scratch
		got, want ctxScratch
	)
	radius := d.opts.Radius
	for _, x := range nodes {
		p, ok := tab.position(x)
		if !ok {
			return fmt.Errorf("node %d not in the table", x.Index)
		}
		tm := sphere.SphereAt(tab.graph, p, radius, &ps)
		rm := sphere.SphereInto(x, radius, d.opts.FollowLinks, &ss)
		if len(tm) != len(rm) {
			return fmt.Errorf("node %d: %d members, reference %d", x.Index, len(tm), len(rm))
		}
		var unknown []string
		for i, m := range rm {
			if int(tm[i].Pos) != m.Node.Index || int(tm[i].Dist) != m.Dist {
				return fmt.Errorf("node %d member %d: (%d, %d), reference (%d, %d)",
					x.Index, i, tm[i].Pos, tm[i].Dist, m.Node.Index, m.Dist)
			}
			if l := m.Node.Label; l != "" {
				if _, known := d.net.LabelID(l); !known {
					unknown = append(unknown, l)
				}
			}
		}
		slices.Sort(unknown)
		unknown = slices.Compact(unknown)

		g := tab.contextAt(p, radius, &got)
		if len(g.local.Dims) != len(g.vec.Dims) {
			return fmt.Errorf("node %d: %d local dimensions, %d label dimensions", x.Index, len(g.local.Dims), len(g.vec.Dims))
		}
		for i, l := range g.local.Dims {
			if tab.ldims[l] != g.vec.Dims[i] {
				return fmt.Errorf("node %d: local dimension %d names %d, want %d", x.Index, l, tab.ldims[l], g.vec.Dims[i])
			}
		}
		if i := slices.IndexFunc(got.acc, func(w float64) bool { return w != 0 }); i >= 0 {
			return fmt.Errorf("node %d: accumulator holds %v at %d after the context build", x.Index, got.acc[i], i)
		}
		w := d.buildContextInto(x, &want)
		if g.size != w.size || len(g.ctx) != len(w.ctx) {
			return fmt.Errorf("node %d: size %d/%d context nodes, reference %d/%d",
				x.Index, g.size, len(g.ctx), w.size, len(w.ctx))
		}
		for i := range w.ctx {
			gc, wc := g.ctx[i], w.ctx[i]
			if gc.weight != wc.weight {
				return fmt.Errorf("node %d context node %d: weight %g, reference %g", x.Index, i, gc.weight, wc.weight)
			}
			if gl, wl := g.lemmas[gc.lemmaStart:gc.lemmaEnd], w.lemmas[wc.lemmaStart:wc.lemmaEnd]; !slices.Equal(gl, wl) {
				return fmt.Errorf("node %d context node %d: lemmas %v, reference %v", x.Index, i, gl, wl)
			}
		}
		gv, wv := g.vec, w.vec
		if len(gv.Dims) != len(wv.Dims) {
			return fmt.Errorf("node %d: %d dimensions, reference %d", x.Index, len(gv.Dims), len(wv.Dims))
		}
		for i := range wv.Dims {
			gl, wl := d.net.LabelName(gv.Dims[i]), d.net.LabelName(wv.Dims[i])
			if gv.Dims[i] >= base {
				gl = tabLabel[gv.Dims[i]]
			}
			if wv.Dims[i] >= base {
				wl = unknown[wv.Dims[i]-base]
			}
			if gl != wl || math.Float64bits(gv.Weights[i]) != math.Float64bits(wv.Weights[i]) {
				return fmt.Errorf("node %d dimension %d: %q %v, reference %q %v",
					x.Index, i, gl, gv.Weights[i], wl, wv.Weights[i])
			}
		}
		if math.Float64bits(gv.norm2) != math.Float64bits(wv.norm2) {
			return fmt.Errorf("node %d: squared norm %v, reference %v", x.Index, gv.norm2, wv.norm2)
		}
	}
	return nil
}

// fuzzLabels is the fuzz alphabet: known lemmas, a case variant (an
// unknown vector dimension whose lemma lookup still succeeds), unknown
// and empty labels, and compound labels with two tokens.
var fuzzLabels = []struct {
	label  string
	tokens []string
}{
	{"star", []string{"star"}},
	{"kelly", []string{"kelly"}},
	{"cast", nil},
	{"picture", []string{"picture"}},
	{"Star", []string{"Star"}},
	{"zzq", []string{"zzq"}},
	{"qux", nil},
	{"", nil},
	{"first name", []string{"first", "name"}},
	{"rear window", []string{"rear", "window"}},
	{"star zzq", []string{"star", "zzq"}},
}

// decodeFuzzTree builds a small tree from fuzz bytes: a node count, then
// per node a parent among the earlier nodes and a label from fuzzLabels,
// then link pairs from the remaining bytes. The last two results are the
// radius and whether links are followed.
func decodeFuzzTree(data []byte) (*xmltree.Tree, int, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	radius := 1 + next()%3
	links := next()%2 == 1
	n := 1 + next()%24
	nodes := make([]*xmltree.Node, n)
	for i := range nodes {
		l := fuzzLabels[next()%len(fuzzLabels)]
		nodes[i] = &xmltree.Node{Raw: l.label, Label: l.label, Tokens: l.tokens, Kind: xmltree.Element}
		if i > 0 {
			nodes[next()%i].AddChild(nodes[i])
		}
	}
	for len(data) >= 2 {
		a, b := nodes[next()%n], nodes[next()%n]
		if a != b {
			a.Links = append(a.Links, b)
			b.Links = append(b.Links, a)
		}
	}
	return xmltree.New(nodes[0]), radius, links
}

// FuzzDocumentContext asserts the context equality of
// TestDocumentContextMatchesReference on small trees decoded from the fuzz
// input.
func FuzzDocumentContext(f *testing.F) {
	f.Add([]byte{1, 0, 6, 0, 1, 0, 2, 1, 8, 2, 4, 3, 7})
	f.Add([]byte{2, 1, 12, 0, 3, 0, 4, 1, 5, 2, 8, 3, 9, 0, 10, 5, 6, 1, 2, 3, 4, 0, 7, 1, 1, 3, 11, 6, 0, 2, 9})
	f.Add([]byte{0, 1, 3, 7, 0, 7, 1, 7, 0, 2})
	net := wordnet.Default()
	cache := NewCache(net, simmeasure.EqualWeights())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, radius, links := decodeFuzzTree(data)
		d := NewShared(cache, Options{Radius: radius, FollowLinks: links})
		if err := contextsMatch(d, tr.Nodes()); err != nil {
			t.Fatalf("radius %d links %v: %v", radius, links, err)
		}
	})
}

// FuzzDocumentScores is the differential fuzz test of the block scorer:
// every node of a tree decoded from the fuzz input (compound labels
// included) is scored by ApplyReport on the document table, by Node and
// Candidates on the per-node context, and by the reference scorer, and
// the senses and score bits must agree. The first two bytes draw the
// method and the vector measure; decodeFuzzTree draws the radius and
// links.
func FuzzDocumentScores(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 6, 0, 1, 0, 2, 1, 8, 2, 4, 3, 7})
	f.Add([]byte{0, 1, 2, 1, 12, 0, 3, 0, 4, 1, 5, 2, 8, 3, 9, 0, 10, 5, 6, 1, 2, 3, 4, 0, 7, 1, 1, 3, 11, 6, 0, 2, 9})
	f.Add([]byte{1, 2, 0, 1, 3, 7, 0, 7, 1, 7, 0, 2})
	f.Add([]byte{2, 1, 1, 0, 9, 8, 0, 9, 0, 1, 1, 3, 2, 0, 1, 5, 3})
	net := wordnet.Default()
	cache := NewCache(net, simmeasure.EqualWeights())
	measures := []sphere.VectorSim{nil, sphere.Jaccard, sphere.Pearson}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		method, measure := Method(data[0]%3), data[1]%3
		tr, radius, links := decodeFuzzTree(data[2:])
		d := NewShared(cache, Options{
			Radius:        radius,
			Method:        method,
			SimWeights:    simmeasure.EqualWeights(),
			ConceptWeight: 0.5,
			ContextWeight: 0.5,
			VectorSim:     measures[measure],
			FollowLinks:   links,
		})
		if _, err := matchesReference(d, tr.Nodes()); err != nil {
			t.Fatalf("%s, measure %d, radius %d, links %v: %v", method, measure, radius, links, err)
		}
		for _, x := range tr.Nodes() {
			if err := nodeMatchesReference(d, x); err != nil {
				t.Fatalf("%s, measure %d, radius %d, links %v: %v", method, measure, radius, links, err)
			}
		}
	})
}

// TestLocalAccumulatorClearedAfterDocument: the document path folds each
// target's context vector into its scratch's local-dimension accumulator
// and zeroes it once the target is scored, so the accumulator is all zero
// between targets and after the document — scored serially on one
// scratch, and by three node workers on one scratch each, as
// ApplyReport's workers are. Scratches ApplyReport itself returned to the
// pool, serially and with node workers, must be all zero too.
func TestLocalAccumulatorClearedAfterDocument(t *testing.T) {
	net := wordnet.Default()
	opts := Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 0.5, ContextWeight: 0.5}
	d := New(net, opts)
	targets := goldenTree(t, false).Nodes()
	tab := d.docTableFor(targets)
	if tab == nil {
		t.Fatal("no document table")
	}
	defer tab.release()
	if n := len(tab.ldims); n == 0 || int(tab.ldims[n-1]) < net.NumLabels() {
		t.Fatalf("document has no unknown label dimensions (%d local dimensions)", n)
	}
	cleared := func(s *ctxScratch) error {
		if i := slices.IndexFunc(s.acc, func(w float64) bool { return w != 0 }); i >= 0 {
			return fmt.Errorf("local dimension %d holds %v", i, s.acc[i])
		}
		return nil
	}

	serial := new(ctxScratch)
	for _, x := range targets {
		d.scoreTarget(x, tab, d.opts.Method, serial)
		if err := cleared(serial); err != nil {
			t.Fatalf("serial scratch after target %d: %v", x.Index, err)
		}
	}
	if len(serial.acc) < len(tab.ldims) {
		t.Fatalf("accumulator has %d dimensions, the document %d", len(serial.acc), len(tab.ldims))
	}

	workers := []*ctxScratch{new(ctxScratch), new(ctxScratch), new(ctxScratch)}
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for w, s := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(targets) && errs[w] == nil; i += len(workers) {
				d.scoreTarget(targets[i], tab, d.opts.Method, s)
				errs[w] = cleared(s)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("node worker %d's scratch between targets: %v", w, err)
		}
	}

	for _, nodeWorkers := range []int{1, 3} {
		o := opts
		o.Workers = nodeWorkers
		if _, err := New(net, o).ApplyReport(context.Background(), goldenTree(t, false).Nodes()); err != nil {
			t.Fatal(err)
		}
		var drawn []*ctxScratch
		for range 8 {
			s := ctxScratchPool.Get().(*ctxScratch)
			drawn = append(drawn, s)
			if err := cleared(s); err != nil {
				t.Errorf("pooled scratch after ApplyReport with %d node workers: %v", nodeWorkers, err)
			}
		}
		for _, s := range drawn {
			ctxScratchPool.Put(s)
		}
	}
}

// TestSenseRowsHoldConceptVectors: after a document is scored under the
// combined method — serially, and by three node workers sharing the table
// — every filled sense row holds its sense's concept vector at the local
// dimensions the vector shares with the document and zero elsewhere, with
// the vector's squared norm, and at least one row was filled. Rows exist
// only with a word matrix, and not for concept-based scoring or another
// vector measure.
func TestSenseRowsHoldConceptVectors(t *testing.T) {
	net := wordnet.Default()
	opts := Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 0.5, ContextWeight: 0.5}
	for _, workers := range []int{1, 3} {
		d := New(net, opts)
		targets := goldenTree(t, false).Nodes()
		tab := d.docTableFor(targets)
		if tab == nil || len(tab.srows) == 0 {
			t.Fatal("no document table with sense rows")
		}
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := new(ctxScratch)
				for i := w; i < len(targets); i += workers {
					d.scoreTarget(targets[i], tab, d.opts.Method, s)
				}
			}()
		}
		wg.Wait()
		filled := 0
		for c, row := range tab.rows {
			if row < 0 {
				continue
			}
			for k, sense := range net.LemmaSensesDense(columnLemma(tab, c)) {
				r := int(row) + k
				if !tab.sready[r].Load() {
					continue
				}
				filled++
				cv, _ := d.vecs.concept(sense)
				want := make([]float64, len(tab.ldims))
				for j, dim := range cv.Dims {
					if l, ok := slices.BinarySearch(tab.ldims, dim); ok {
						want[l] = cv.Weights[j]
					}
				}
				got := tab.srows[r*len(tab.ldims) : (r+1)*len(tab.ldims)]
				if !slices.Equal(got, want) || math.Float64bits(tab.snorm[r]) != math.Float64bits(cv.norm2) {
					t.Errorf("workers %d: sense row %d (%d) holds %v norm %v, want %v norm %v",
						workers, r, sense, got, tab.snorm[r], want, cv.norm2)
				}
			}
		}
		if filled == 0 {
			t.Errorf("workers %d: no sense row was filled", workers)
		}
		tab.release()
	}
	for _, o := range []Options{{Radius: 2, Method: ConceptBased}, {Radius: 2, Method: Combined, VectorSim: sphere.Jaccard}} {
		d := New(net, o)
		tab := d.docTableFor(goldenTree(t, false).Nodes())
		if len(tab.cells) == 0 || len(tab.srows) != 0 || len(tab.sready) != 0 {
			t.Errorf("%s: %d cells, %d sense-row cells, %d sense rows; want cells and no rows",
				o.Method, len(tab.cells), len(tab.srows), len(tab.sready))
		}
		tab.release()
	}
}

// TestDocumentFaultSeams pins the document path's fault-seam contract.
// DropLookup is drawn once per node token per document, in preorder, when
// the table is built, and never again while targets are scored: the draws
// a run leaves behind line up with a reference sequence advanced by the
// document's token count. PoisonSim fires on every matrix read, and a
// poisoned value never enters the matrix: every filled cell holds the
// uncached word maximum's exact bits.
func TestDocumentFaultSeams(t *testing.T) {
	net := wordnet.Default()
	tr := parse(t, figure1Doc)
	tokens := 0
	for _, n := range tr.Nodes() {
		tokens += max(1, len(n.Tokens))
	}
	cfg := faultinject.Config{Seed: 7, LookupErrRate: 0.5, CachePoisonRate: 0.5}

	// Reference decisions: the schedule's first tokens+64 lookup draws.
	restore := faultinject.Install(faultinject.New(cfg))
	drops := make([]bool, tokens+64)
	for i := range drops {
		drops[i] = faultinject.DropLookup()
	}
	restore()

	d := New(net, Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 0.5, ContextWeight: 0.5})
	restore = faultinject.Install(faultinject.New(cfg))
	tab := d.docTableFor(tr.Nodes())
	if tab == nil || len(tab.cells) == 0 {
		restore()
		t.Fatal("no document table with a word matrix")
	}
	defer tab.release()
	s := new(ctxScratch)
	for _, x := range tr.Nodes() {
		d.scoreTarget(x, tab, d.opts.Method, s)
	}
	after := make([]bool, 64)
	for i := range after {
		after[i] = faultinject.DropLookup()
	}
	restore()

	i := 0
	for _, n := range tr.Nodes() {
		p, _ := tab.position(n)
		want := d.appendLemmas(nil, n) // no injector: the undropped ids
		for k, l := range tab.lemmas[tab.lemOff[p]:tab.lemOff[p+1]] {
			if drops[i] {
				want[k] = -1
			}
			if l != want[k] {
				t.Errorf("node %d %q token %d: lemma %d, want %d (dropped %v)", p, n.Label, k, l, want[k], drops[i])
			}
			i++
		}
	}
	if !slices.Equal(after, drops[tokens:]) {
		t.Errorf("scoring drew lookups beyond the table's %d: the next draws do not line up", tokens)
	}

	filled := 0
	for c, row := range tab.rows {
		if row < 0 {
			continue
		}
		senses := net.LemmaSensesDense(columnLemma(tab, c))
		for k, sense := range senses {
			for c2 := 0; c2 < tab.ncols; c2++ {
				b := tab.cells[(int(row)+k)*tab.ncols+c2].Load()
				if b == 0 {
					continue
				}
				filled++
				want := d.cache.Measure().WordSimDirectDense(sense, columnLemma(tab, c2))
				if got := math.Float64frombits(^b); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("cell (%d, %d) holds %v, want the word maximum %v", int(row)+k, c2, got, want)
				}
			}
		}
	}
	if filled == 0 {
		t.Error("no matrix cell was filled")
	}
}

// columnLemma returns the label id of a matrix column.
func columnLemma(tab *docTable, c int) int32 {
	for i, col := range tab.cols {
		if int(col) == c {
			return tab.lemmas[i]
		}
	}
	return -1
}
