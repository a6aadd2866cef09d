package disambig

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lingproc"
	"repro/internal/simmeasure"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
)

func benchDoc(b *testing.B) *xmltree.Tree {
	b.Helper()
	docs := corpus.GenerateDataset(1, 1) // one Shakespeare play (~200 nodes)
	tr := docs[0].Tree
	lingproc.ProcessTree(tr, wordnet.Default())
	return tr
}

func BenchmarkNodeByMethod(b *testing.B) {
	tr := benchDoc(b)
	net := wordnet.Default()
	// A reliably polysemous target.
	var target *xmltree.Node
	for _, n := range tr.Nodes() {
		if n.Label == "line" {
			target = n
			break
		}
	}
	if target == nil {
		b.Fatal("no LINE node")
	}
	for _, m := range []Method{ConceptBased, ContextBased, Combined} {
		b.Run(m.String(), func(b *testing.B) {
			d := New(net, Options{Radius: 2, Method: m, SimWeights: simmeasure.EqualWeights(),
				ConceptWeight: 0.5, ContextWeight: 0.5})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := d.Node(target); !ok {
					b.Fatal("not disambiguated")
				}
			}
		})
	}
}

func BenchmarkApplyDocumentByRadius(b *testing.B) {
	net := wordnet.Default()
	for _, radius := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("d=%d", radius), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := benchDoc(b)
				d := New(net, Options{Radius: radius, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
				b.StartTimer()
				if n := d.Apply(tr.Nodes()); n == 0 {
					b.Fatal("nothing assigned")
				}
			}
		})
	}
}

// benchSink keeps benchmarked results live.
var benchSink float64

// BenchmarkDocumentTable prices the document path's per-document set-up
// on the repository benchmark's corpus (corpus.GenerateScaled(1, 4), every
// node a target), so a document whose (sense, lemma) reads never repeat
// can be judged: "build" resolves each document's table (shape, labels,
// lemmas, matrix sizing); "fill" also reads every matrix cell once
// through a warm shared memo, and "memo" makes the same reads without the
// matrix — fill minus memo, per cell, is what a first read pays for the
// matrix.
func BenchmarkDocumentTable(b *testing.B) {
	net := wordnet.Default()
	docs := corpus.GenerateScaled(1, 4)
	for _, doc := range docs {
		lingproc.ProcessTree(doc.Tree, net)
	}
	d := New(net, Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 0.5, ContextWeight: 0.5})
	var (
		lemmaOf []int32 // per matrix column
		tally   cacheTally
	)
	readAll := func(t *docTable, viaMatrix bool) (cells int) {
		lemmaOf = slices.Grow(lemmaOf[:0], t.ncols)[:t.ncols]
		for i, c := range t.cols {
			if c >= 0 {
				lemmaOf[c] = t.lemmas[i]
			}
		}
		for c, row := range t.rows {
			if row < 0 {
				continue
			}
			for k, sense := range net.LemmaSensesDense(lemmaOf[c]) {
				for c2, lemma := range lemmaOf {
					var cell *atomic.Uint64
					if viaMatrix {
						cell = &t.cells[(int(row)+k)*t.ncols+c2]
					}
					benchSink += d.wordSim(sense, lemma, cell, &tally)
					cells++
				}
			}
		}
		return cells
	}
	for _, doc := range docs { // warm the shared memo
		t := d.docTableFor(doc.Tree.Nodes())
		readAll(t, false)
		t.release()
	}
	for _, mode := range []string{"build", "fill", "memo"} {
		b.Run(mode, func(b *testing.B) {
			cells := 0
			for i := 0; i < b.N; i++ {
				cells = 0
				for _, doc := range docs {
					t := d.docTableFor(doc.Tree.Nodes())
					if mode != "build" {
						cells += readAll(t, mode == "fill")
					}
					t.release()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/doc")
			if cells > 0 {
				b.ReportMetric(float64(cells)/float64(len(docs)), "cells/doc")
			}
		})
	}
}
