// Package baseline reimplements the two comparator systems of the paper's
// evaluation (§4.3.2): RPD, the root-path disambiguation of Tagarelli et
// al. [50], and VSD, the versatile structural disambiguation of Mandreoli
// et al. [29], following their descriptions in §2.2 of the XSDF paper.
package baseline

import (
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/xmltree"
)

// RPD is the Root Path Disambiguation baseline: the context of a node is
// the sequence of node labels connecting it to the document root, and
// per-path sense disambiguation compares every sense of the target label
// with all possible senses of the other labels in the same path, using
// gloss-based and edge-based semantic similarity, selecting the sense with
// the maximal accumulated score. Compound tag names are NOT tokenized
// (Table 4: RPD lacks tag tokenization), so labels such as "firstname" are
// looked up verbatim and usually miss.
type RPD struct {
	net *semnet.Network
	sim *simmeasure.Measure
}

// NewRPD returns the baseline over net. Per the original method, similarity
// combines the edge-based and gloss-based measures in equal parts (no
// node-based information content).
func NewRPD(net *semnet.Network) *RPD {
	w := simmeasure.Weights{Edge: 0.5, Gloss: 0.5}
	return &RPD{net: net, sim: simmeasure.New(net, w)}
}

// Node disambiguates one node against its root-path context. ok is false
// when the raw label (lower-cased, unsplit) has no senses.
func (r *RPD) Node(x *xmltree.Node) (semnet.ConceptID, bool) {
	// RPD performs no compound splitting: it uses the whole raw tag name.
	senses := r.net.SensesDense(rawLookupLabel(x))
	if len(senses) == 0 {
		return "", false
	}
	id, _ := r.net.ConceptAt(r.best(x, senses))
	return id, true
}

// best returns the sense of x with the maximal accumulated similarity to
// the labels on its root path (excluding x itself). A label contributes
// its best similarity over its senses, max(0, max_j Sim(s_p, s_j)) — the
// word memo's value — and an unknown label contributes nothing. RPD
// disambiguates element labels within the path only; a node with an
// empty path context (the root) falls back to the first (dominant) sense.
func (r *RPD) best(x *xmltree.Node, senses []semnet.DenseID) semnet.DenseID {
	if len(senses) == 1 {
		return senses[0]
	}
	var ctx []int32
	for cur := x.Parent; cur != nil; cur = cur.Parent {
		if l := r.net.LemmaDense(rawLookupLabel(cur)); l >= 0 {
			ctx = append(ctx, l)
		}
	}
	best := senses[0]
	bestScore := -1.0
	for _, sp := range senses {
		var score float64
		for _, l := range ctx {
			v, _ := r.sim.WordSimDense(sp, l)
			score += v
		}
		if score > bestScore {
			bestScore = score
			best = sp
		}
	}
	return best
}

// Apply runs RPD over the target nodes, writing senses in place, and
// returns the number of senses assigned.
func (r *RPD) Apply(targets []*xmltree.Node) int {
	n := 0
	for _, x := range targets {
		if s, ok := r.Node(x); ok {
			x.Sense = string(s)
			n++
		}
	}
	return n
}

// rawLookupLabel lower-cases the node's raw tag/token for lexicon lookup
// without any compound splitting or stemming, modeling the weaker
// linguistic pre-processing of the baselines.
func rawLookupLabel(x *xmltree.Node) string {
	return lower(x.Raw)
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
