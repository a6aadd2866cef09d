// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section (§4), plus ablation benches for the design
// choices DESIGN.md calls out. Each experiment bench regenerates its
// table/figure once per iteration over the full synthetic corpus, so
// ns/op measures the cost of the whole experiment; the reported values
// themselves are printed by cmd/xsdf-experiments and recorded in
// EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package xsdf_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/disambig"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/xmltree"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

func runner() *experiments.Runner {
	benchOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.DefaultConfig())
	})
	return benchRunner
}

// BenchmarkTable1 regenerates the group-level ambiguity/structure averages.
func BenchmarkTable1(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Table1()
		if len(rows) != 4 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkTable2 regenerates the human-system ambiguity correlations.
func BenchmarkTable2(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Table2()
		if len(rows) != 10 {
			b.Fatal("bad table 2")
		}
	}
}

// BenchmarkTable3 regenerates the dataset characteristics table.
func BenchmarkTable3(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Table3()
		if len(rows) != 10 {
			b.Fatal("bad table 3")
		}
	}
}

// BenchmarkFigure8 sweeps group x radius x process and scores each cell.
func BenchmarkFigure8(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := r.Figure8()
		if len(cells) == 0 {
			b.Fatal("bad figure 8")
		}
	}
}

// BenchmarkFigure9 runs the comparative study (XSDF vs RPD vs VSD).
func BenchmarkFigure9(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Figure9()
		if len(rows) != 12 {
			b.Fatal("bad figure 9")
		}
	}
}

// evaluateConfig scores one XSDF configuration over the annotated corpus
// and returns the micro-averaged F across all groups.
func evaluateConfig(r *experiments.Runner, opts disambig.Options) eval.PRF {
	dis := disambig.New(r.Network(), opts)
	var correct, assigned, total int
	for i := range r.Docs() {
		for _, n := range r.Selected(i) {
			total++
			s, ok := dis.Node(n)
			if !ok {
				continue
			}
			assigned++
			if s.ID() == r.HumanSense(n) {
				correct++
			}
		}
	}
	return eval.Score(correct, assigned, total)
}

// BenchmarkAblationBagOfWords compares the sphere context vector against a
// flattened bag-of-words context (all structural weights equal), the
// representation Motivation 3 argues against. The bench reports both
// F-values as custom metrics.
func BenchmarkAblationBagOfWords(b *testing.B) {
	r := runner()
	sphereOpts := disambig.Options{Radius: 2, Method: disambig.ConceptBased, SimWeights: simmeasure.EqualWeights()}
	b.ResetTimer()
	var fSphere, fFlat float64
	for i := 0; i < b.N; i++ {
		fSphere = evaluateConfig(r, sphereOpts).F
		fFlat = evaluateBagOfWords(r).F
	}
	b.ReportMetric(fSphere, "f-sphere")
	b.ReportMetric(fFlat, "f-bagofwords")
}

// evaluateBagOfWords runs concept-based scoring with uniform context
// weights (ignoring structural proximity and label frequency).
func evaluateBagOfWords(r *experiments.Runner) eval.PRF {
	net := r.Network()
	sim := simmeasure.New(net, simmeasure.EqualWeights())
	var correct, assigned, total int
	for i := range r.Docs() {
		for _, n := range r.Selected(i) {
			total++
			tokens := n.Tokens
			if len(tokens) == 0 {
				tokens = []string{n.Label}
			}
			senses := net.Senses(tokens[0])
			if len(senses) == 0 {
				continue
			}
			assigned++
			members := sphere.Sphere(n, 2)
			best, bestScore := senses[0], -1.0
			for _, sp := range senses {
				var score float64
				for _, m := range members {
					if m.Node == n {
						continue
					}
					ctokens := m.Node.Tokens
					if len(ctokens) == 0 {
						ctokens = []string{m.Node.Label}
					}
					mx := 0.0
					for _, ct := range ctokens {
						for _, sj := range net.Senses(ct) {
							if v := sim.Sim(sp, sj); v > mx {
								mx = v
							}
						}
					}
					score += mx // uniform weight: the bag-of-words model
				}
				if score > bestScore {
					bestScore, best = score, sp
				}
			}
			if string(best) == r.HumanSense(n) {
				correct++
			}
		}
	}
	return eval.Score(correct, assigned, total)
}

// BenchmarkAblationSimMeasures compares the combined similarity measure
// against each single measure (edge-only, node-only, gloss-only),
// reporting per-config F.
func BenchmarkAblationSimMeasures(b *testing.B) {
	r := runner()
	configs := map[string]simmeasure.Weights{
		"combined": simmeasure.EqualWeights(),
		"edge":     simmeasure.EdgeOnly(),
		"node":     simmeasure.NodeOnly(),
		"gloss":    simmeasure.GlossOnly(),
	}
	b.ResetTimer()
	results := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, w := range configs {
			opts := disambig.Options{Radius: 1, Method: disambig.ConceptBased, SimWeights: w}
			results[name] = evaluateConfig(r, opts).F
		}
	}
	for name, f := range results {
		b.ReportMetric(f, "f-"+name)
	}
}

// BenchmarkAblationSelection measures what ambiguity-based node selection
// buys (Motivation 1: disambiguating all nodes "is time consuming and
// sometimes needless"): the full pipeline over a ~200-node Shakespeare
// document with Thresh_Amb = 0 (all nodes) vs a threshold that skips the
// unambiguous majority. The metric of interest is ns/op; skipped nodes are
// monosemous or unknown, so quality on ambiguous targets is unchanged.
func BenchmarkAblationSelection(b *testing.B) {
	for _, cfg := range []struct {
		name      string
		threshold float64
	}{{"all-nodes", 0}, {"selected", 0.12}} {
		b.Run(cfg.name, func(b *testing.B) {
			fw, err := xsdf.New(xsdf.Options{Threshold: cfg.threshold, Radius: 2})
			if err != nil {
				b.Fatal(err)
			}
			var targets int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tree := corpus.GenerateDataset(11, 1)[0].Tree
				b.StartTimer()
				res, err := fw.DisambiguateTree(tree)
				if err != nil {
					b.Fatal(err)
				}
				targets = res.Targets
			}
			b.ReportMetric(float64(targets), "targets")
		})
	}
}

// BenchmarkAblationCompound compares XSDF's compound handling with the
// baselines' behavior on a compound-heavy document: XSDF assigns senses to
// camel-case tags, RPD cannot.
func BenchmarkAblationCompound(b *testing.B) {
	r := runner()
	rpd := baseline.NewRPD(r.Network())
	dis := disambig.New(r.Network(), disambig.Options{Radius: 2, Method: disambig.ConceptBased, SimWeights: simmeasure.EqualWeights()})
	var compound []*xmltree.Node
	for i, d := range r.Docs() {
		if d.Dataset != 2 {
			continue
		}
		for _, n := range r.Selected(i) {
			if len(n.Tokens) == 2 {
				compound = append(compound, n)
			}
		}
	}
	if len(compound) == 0 {
		b.Fatal("no compound targets")
	}
	b.ResetTimer()
	var xsdfAssigned, rpdAssigned int
	for i := 0; i < b.N; i++ {
		xsdfAssigned, rpdAssigned = 0, 0
		for _, n := range compound {
			if _, ok := dis.Node(n); ok {
				xsdfAssigned++
			}
			if _, ok := rpd.Node(n); ok {
				rpdAssigned++
			}
		}
	}
	b.ReportMetric(float64(xsdfAssigned)/float64(len(compound)), "xsdf-coverage")
	b.ReportMetric(float64(rpdAssigned)/float64(len(compound)), "rpd-coverage")
}

// BenchmarkAblationContent compares structure-and-content against
// structure-only processing (§3.1: considering data values "is beneficiary
// in resolving ambiguities in both tag names and data values" — e.g. the
// values Kelly and Stewart help disambiguate the tag "cast"). Both
// configurations are evaluated on the same element/attribute gold targets;
// only the contexts differ.
func BenchmarkAblationContent(b *testing.B) {
	net := experiments.NewRunner(experiments.Config{Seed: 42, NodesPerDoc: 13}).Network()
	score := func(includeContent bool) eval.PRF {
		fw, err := xsdf.New(xsdf.Options{StructureOnly: !includeContent, Radius: 2})
		if err != nil {
			b.Fatal(err)
		}
		var correct, assigned, total int
		for _, d := range freshCorpusTrees() {
			if !includeContent {
				stripTokens(d)
			}
			res, err := fw.DisambiguateTree(d)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range res.Tree.Nodes() {
				if n.Kind == xsdf.TokenNode || n.Gold == "" {
					continue
				}
				total++
				if n.Sense == "" {
					continue
				}
				assigned++
				if n.Sense == n.Gold {
					correct++
				}
			}
		}
		return eval.Score(correct, assigned, total)
	}
	_ = net
	b.ResetTimer()
	var fFull, fStruct float64
	for i := 0; i < b.N; i++ {
		fFull = score(true).F
		fStruct = score(false).F
	}
	b.ReportMetric(fFull, "f-content")
	b.ReportMetric(fStruct, "f-structure-only")
}

// freshCorpusTrees regenerates the corpus so each scoring pass gets
// unannotated trees.
func freshCorpusTrees() []*xmltree.Tree {
	var out []*xmltree.Tree
	for _, d := range corpus.Generate(42) {
		out = append(out, d.Tree)
	}
	return out
}

// stripTokens removes all text-token leaves in place (structure-only mode).
func stripTokens(t *xmltree.Tree) {
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		kept := n.Children[:0]
		for _, c := range n.Children {
			if c.Kind == xmltree.Token {
				continue
			}
			kept = append(kept, c)
			walk(c)
		}
		n.Children = kept
	}
	if t.Root != nil {
		walk(t.Root)
		t.Reindex()
	}
}

// BenchmarkAblationDiscourse measures the one-sense-per-discourse
// harmonization pass (extension beyond the paper): F with and without the
// post-processing over the annotated corpus.
func BenchmarkAblationDiscourse(b *testing.B) {
	r := runner()
	score := func(harmonize bool) eval.PRF {
		var correct, assigned, total int
		for i, doc := range r.Docs() {
			dis := disambig.New(r.Network(), disambig.Options{
				Radius: experiments.Figure9OptimalRadii[doc.Group],
				Method: disambig.ConceptBased, SimWeights: simmeasure.EqualWeights()})
			// Work on clones so runs stay independent.
			clone := doc.Tree.Clone()
			dis.Apply(clone.Nodes())
			if harmonize {
				disambig.Harmonize(clone.Nodes())
			}
			for _, n := range r.Selected(i) {
				total++
				cn := clone.Node(n.Index)
				if cn.Sense == "" {
					continue
				}
				assigned++
				if cn.Sense == r.HumanSense(n) {
					correct++
				}
			}
		}
		return eval.Score(correct, assigned, total)
	}
	b.ResetTimer()
	var fPlain, fHarmonized float64
	for i := 0; i < b.N; i++ {
		fPlain = score(false).F
		fHarmonized = score(true).F
	}
	b.ReportMetric(fPlain, "f-plain")
	b.ReportMetric(fHarmonized, "f-harmonized")
}

// BenchmarkApproaches compares per-node disambiguation cost of XSDF (at
// its Group 1 optimum) against the RPD and VSD baselines over the same
// annotated targets.
func BenchmarkApproaches(b *testing.B) {
	r := runner()
	var targets []*xmltree.Node
	for i := range r.Docs() {
		targets = append(targets, r.Selected(i)...)
	}
	b.Run("XSDF", func(b *testing.B) {
		dis := disambig.New(r.Network(), disambig.Options{Radius: 1,
			Method: disambig.ConceptBased, SimWeights: simmeasure.EqualWeights()})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dis.Node(targets[i%len(targets)])
		}
	})
	b.Run("RPD", func(b *testing.B) {
		rpd := baseline.NewRPD(r.Network())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rpd.Node(targets[i%len(targets)])
		}
	})
	b.Run("VSD", func(b *testing.B) {
		vsd := baseline.NewVSD(r.Network())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vsd.Node(targets[i%len(targets)])
		}
	})
}

// BenchmarkPipelineSingleDocument measures end-to-end cost of the public
// API on the Figure 1 document.
func BenchmarkPipelineSingleDocument(b *testing.B) {
	fw, err := xsdf.New(xsdf.Options{Radius: 2})
	if err != nil {
		b.Fatal(err)
	}
	doc := benchDoc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fw.DisambiguateString(doc)
		if err != nil || res.Assigned == 0 {
			b.Fatal("pipeline failed")
		}
	}
}

// BenchmarkPipelineBatch measures batch reprocessing of the full synthetic
// corpus (the repeated-vocabulary workload the shared cache targets).
//
//   - shared-cache: one Framework reused across iterations, so after the
//     first pass every pairwise similarity and sphere vector is warm;
//   - shared-cache-combined: shared-cache under the combined method (the
//     repository benchmark's configuration), so the context leg — the
//     concept-vector memo and the cosine — runs as well;
//   - cold-cache: a fresh Framework per iteration, the per-document-cache
//     behavior the shared layer replaced;
//   - parallel-nodes: the shared Framework with intra-document node
//     workers on top of the warm cache.
//
// Tree regeneration is excluded via StopTimer.
func BenchmarkPipelineBatch(b *testing.B) {
	run := func(b *testing.B, fresh bool, nodeWorkers int, method xsdf.Method) {
		opts := xsdf.Options{Radius: 2, NodeWorkers: nodeWorkers, Method: method}
		fw, err := xsdf.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !fresh {
			// Warm pass: the reprocessing workload starts from a
			// populated cache.
			if _, err := fw.DisambiguateBatch(freshCorpusTrees(), 4); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			trees := freshCorpusTrees()
			if fresh {
				fw, err = xsdf.New(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			results, err := fw.DisambiguateBatch(trees, 4)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res == nil || res.Assigned == 0 {
					b.Fatal("document not disambiguated")
				}
			}
		}
	}
	b.Run("shared-cache", func(b *testing.B) { run(b, false, 0, xsdf.ConceptBased) })
	b.Run("shared-cache-combined", func(b *testing.B) { run(b, false, 0, xsdf.Combined) })
	b.Run("cold-cache", func(b *testing.B) { run(b, true, 0, xsdf.ConceptBased) })
	b.Run("parallel-nodes", func(b *testing.B) { run(b, false, -1, xsdf.ConceptBased) })
}

// BenchmarkPipelineParse measures the parse layer alone: one op parses
// the 240 serialized documents of corpus.GenerateScaled(1, 4) — the
// benchmark corpus — with Framework.ParseTree, under the pipeline's
// content mode, tokenizer and resource guards.
func BenchmarkPipelineParse(b *testing.B) {
	fw, err := xsdf.New(xsdf.Options{Radius: 2})
	if err != nil {
		b.Fatal(err)
	}
	var docs []string
	for _, d := range corpus.GenerateScaled(1, 4) {
		var buf bytes.Buffer
		if err := d.Tree.WriteXML(&buf, false); err != nil {
			b.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, doc := range docs {
			if _, err := fw.ParseTree(strings.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPipelineReload measures one lexicon hot-swap: a
// Framework.Reload of the embedded lexicon's codec file — load (checksum,
// parse and build), structural validation, the canary pass on the
// candidate snapshot, and the swap — the operation perfbench times as
// reload_ms, under perfbench's method and radius.
func BenchmarkPipelineReload(b *testing.B) {
	path := filepath.Join(b.TempDir(), "lexicon.semnet")
	if _, err := xsdf.WriteNetworkFile(path, xsdf.DefaultNetwork(), "bench"); err != nil {
		b.Fatal(err)
	}
	fw, err := xsdf.New(xsdf.Options{Radius: 2, Method: xsdf.Combined})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Reload(ctx, path, xsdf.ReloadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineDegraded quantifies the degradation ladder's
// quality/latency trade-off: the full corpus batch at each rung, forced via
// node-count watermarks so every document runs entirely at that level. Each
// sub-bench reports gold-label F over element/attribute targets ("f-gold")
// next to its ns/op, giving the README's trade-off table both axes from one
// run.
func BenchmarkPipelineDegraded(b *testing.B) {
	for _, rung := range []struct {
		name    string
		degrade xsdf.DegradeOptions
	}{
		{"full", xsdf.DegradeOptions{}},
		{"concept-only", xsdf.DegradeOptions{Enabled: true, ConceptOnlyAfter: 1}},
		{"first-sense", xsdf.DegradeOptions{Enabled: true, FirstSenseAfter: 1}},
	} {
		b.Run(rung.name, func(b *testing.B) {
			fw, err := xsdf.New(xsdf.Options{Radius: 2, Method: xsdf.Combined, Degrade: rung.degrade})
			if err != nil {
				b.Fatal(err)
			}
			// Warm pass, matching BenchmarkPipelineBatch's steady state.
			if _, err := fw.DisambiguateBatch(freshCorpusTrees(), 4); err != nil {
				b.Fatal(err)
			}
			var f eval.PRF
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				trees := freshCorpusTrees()
				b.StartTimer()
				results, err := fw.DisambiguateBatch(trees, 4)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				var correct, assigned, total int
				for _, res := range results {
					for _, n := range res.Tree.Nodes() {
						if n.Kind == xsdf.TokenNode || n.Gold == "" {
							continue
						}
						total++
						if n.Sense == "" {
							continue
						}
						assigned++
						if n.Sense == n.Gold {
							correct++
						}
					}
				}
				f = eval.Score(correct, assigned, total)
				b.StartTimer()
			}
			b.ReportMetric(f.F, "f-gold")
		})
	}
}

func benchDoc() string {
	return `<films>
  <picture title="Rear Window">
    <director> Hitchcock </director>
    <year> 1954 </year>
    <genre> mystery </genre>
    <cast><star> Stewart </star><star> Kelly </star></cast>
    <plot>A wheelchair bound photographer spies on his neighbors</plot>
  </picture>
</films>`
}
