package disambig

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/semnet"
	"repro/internal/sphere"
	"repro/internal/xmltree"
)

// The reference scorer evaluates Definitions 8 and 10 (Eqs. 10, 12 and 13)
// one candidate at a time, straight from their formulas, and shares no
// memo with the product: every word maximum and concept vector is
// recomputed uncached, each member's context weight is summed from the
// sphere membership, and the vector measure runs generically
// (sphere.Cosine for a nil VectorSim). The golden suites and fuzzers
// check that the block scorer assigns the same senses and score bits.

// refMember is one member of a target's reference context: its context
// vector weight (Definition 7) and the label id of each of its tokens.
type refMember struct {
	weight float64
	lemmas []int32
}

// refContext is the reference sphere context of a target: its members
// without the center, the Definition 6–7 context vector and the sphere
// size.
type refContext struct {
	members []refMember
	vec     sphere.Vector
	size    int
}

// newRefContext builds x's sphere context under d's options. A label's
// weight is twice the sum of its members' structural weights, added in
// member order, over the sphere size plus one.
func newRefContext(d *Disambiguator, x *xmltree.Node) refContext {
	var ss sphere.Scratch
	members := sphere.SphereInto(x, d.opts.Radius, d.opts.FollowLinks, &ss)
	sums := map[string]float64{}
	for _, m := range members {
		if m.Node.Label != "" {
			sums[m.Node.Label] += sphere.Struct(m.Dist, d.opts.Radius)
		}
	}
	rc := refContext{vec: sphere.VectorFromMembers(members, d.opts.Radius, d.net), size: len(members)}
	for _, m := range members {
		if m.Node == x {
			continue
		}
		var w float64
		if l := m.Node.Label; l != "" {
			w = 2 * sums[l] / float64(len(members)+1)
		}
		rc.members = append(rc.members, refMember{weight: w, lemmas: d.appendLemmas(nil, m.Node)})
	}
	return rc
}

// refWordMax is max_j Sim(s, s_j) over the senses of a context member; a
// compound member averages the maxima of its known tokens (§3.5.1 note),
// and a member with none scores 0.
func refWordMax(d *Disambiguator, s semnet.DenseID, m refMember) float64 {
	var sum float64
	counted := 0
	for _, l := range m.lemmas {
		if l >= 0 {
			sum += d.cache.Measure().WordSimDirectDense(s, l)
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// refConceptScore is Concept_Score (Definition 8): the weighted average
// over context members of the candidate's word maximum, a sense pair
// (Eq. 10) averaging its two senses' maxima.
func refConceptScore(d *Disambiguator, c candidate, rc refContext) float64 {
	var total float64
	for _, m := range rc.members {
		var s float64
		for _, id := range c.ids[:c.n] {
			s += refWordMax(d, id, m)
		}
		total += s / float64(c.n) * m.weight
	}
	return total / float64(rc.size)
}

// refContextScore is Context_Score (Definition 10): the vector measure
// between the target's context vector and the candidate's concept vector,
// a sense pair (Eq. 12) taking the vector of the union of its senses'
// spheres.
func refContextScore(d *Disambiguator, c candidate, rc refContext) float64 {
	var (
		cs sphere.ConceptScratch
		cv sphere.Vector
	)
	if c.n == 2 {
		cv = sphere.CombinedConceptVectorInto(d.net, min(c.ids[0], c.ids[1]), max(c.ids[0], c.ids[1]), d.opts.Radius, &cs)
	} else {
		cv = sphere.ConceptVectorInto(d.net, c.ids[0], d.opts.Radius, &cs)
	}
	sim := d.opts.VectorSim
	if sim == nil {
		sim = sphere.Cosine
	}
	return sim(rc.vec, cv)
}

// refRanking scores every candidate of x under d's options and returns
// them in candidate order: the senses of the picked reading, or its sense
// pairs with the first token's sense varying slowest. A lone single-sense
// reading scores 1 without a context (Assumption 4). Nil when no token of
// the label is known.
func refRanking(d *Disambiguator, x *xmltree.Node) []Sense {
	a, b, ok := pick(d.readings(x))
	if !ok {
		return nil
	}
	if len(b.senses) == 0 && len(a.senses) == 1 {
		return []Sense{{Concepts: []semnet.ConceptID{d.conceptID(a.senses[0])}, Score: 1}}
	}
	var cands []candidate
	for _, sp := range a.senses {
		if len(b.senses) == 0 {
			cands = append(cands, candidate{ids: [2]semnet.DenseID{sp}, n: 1})
		}
		for _, sq := range b.senses {
			cands = append(cands, candidate{ids: [2]semnet.DenseID{sp, sq}, n: 2})
		}
	}
	rc := newRefContext(d, x)
	wc, wx := d.mixWeights()
	var out []Sense
	for _, c := range cands {
		var score float64
		switch d.opts.Method {
		case ConceptBased:
			score = refConceptScore(d, c, rc)
		case ContextBased:
			score = refContextScore(d, c, rc)
		default:
			score = wc*refConceptScore(d, c, rc) + wx*refContextScore(d, c, rc)
		}
		var ids []semnet.ConceptID
		for _, id := range c.ids[:c.n] {
			ids = append(ids, d.conceptID(id))
		}
		out = append(out, Sense{Concepts: ids, Score: score})
	}
	return out
}

// refNode is the reference Node.
func refNode(d *Disambiguator, x *xmltree.Node) (Sense, bool) {
	return refWinner(refRanking(d, x))
}

// refWinner picks Node's winner from a ranking in candidate order: the
// first candidate whose score is strictly greater than every earlier one,
// starting from -1.
func refWinner(r []Sense) (Sense, bool) {
	if len(r) == 0 {
		return Sense{}, false
	}
	win, best := 0, -1.0
	for k, c := range r {
		if c.Score > best {
			win, best = k, c.Score
		}
	}
	return Sense{Concepts: r[win].Concepts, Score: best}, true
}

// sameSense reports whether two senses name the same concepts with
// bit-identical scores.
func sameSense(a, b Sense) bool {
	return a.ID() == b.ID() && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// sameRanking reports whether two candidate rankings list the same senses
// in the same order with bit-identical scores.
func sameRanking(a, b []Sense) bool {
	return slices.EqualFunc(a, b, sameSense)
}

// nodeMatchesReference checks d's Node and Candidates on x against the
// reference scorer, senses and score bits; the reference Candidates is
// the ranking sorted best-first, ties in candidate order.
func nodeMatchesReference(d *Disambiguator, x *xmltree.Node) error {
	var errs []error
	r := refRanking(d, x)
	got, ok := d.Node(x)
	if want, wantOK := refWinner(r); ok != wantOK || (ok && !sameSense(got, want)) {
		errs = append(errs, fmt.Errorf("node %q: Node %v %v, reference %v %v", x.Label, got, ok, want, wantOK))
	}
	sort.SliceStable(r, func(i, j int) bool { return r[i].Score > r[j].Score })
	if got := d.Candidates(x); !sameRanking(got, r) {
		errs = append(errs, fmt.Errorf("node %q: Candidates %v, reference %v", x.Label, got, r))
	}
	return errors.Join(errs...)
}
