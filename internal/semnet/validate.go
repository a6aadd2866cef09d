package semnet

import "fmt"

// Validate checks the structural invariants every Network built by Builder
// or Load must satisfy. It is cheap enough to run on loaded user networks
// before trusting them, and the test suites run it against the embedded
// lexicon and the synthetic generator:
//
//   - every edge endpoint exists and carries its inverse edge;
//   - every concept has at least one lemma and positive frequency;
//   - hypernym depths are consistent (child depth = shallowest parent + 1,
//     roots at depth 1);
//   - cumulative frequencies are monotone: cumFreq(parent) >= cumFreq(child)
//     whenever the child has a single hypernym (multi-parent children may
//     legitimately contribute to several ancestors);
//   - the lemma index is complete and frequency-ordered.
func (n *Network) Validate() error {
	for _, id := range n.order {
		c := n.Concept(id)
		if c == nil {
			return fmt.Errorf("semnet: validate: order references unknown concept %q", id)
		}
		if len(c.Lemmas) == 0 {
			return fmt.Errorf("semnet: validate: %s has no lemmas", id)
		}
		if c.Freq <= 0 {
			return fmt.Errorf("semnet: validate: %s has non-positive frequency %g", id, c.Freq)
		}
		for _, e := range n.Edges(id) {
			if n.Concept(e.To) == nil {
				return fmt.Errorf("semnet: validate: %s has edge to unknown %q", id, e.To)
			}
			if !n.hasEdge(e.To, id, e.Rel.Inverse()) {
				return fmt.Errorf("semnet: validate: edge %s -%s-> %s lacks inverse", id, e.Rel, e.To)
			}
		}
		// Depth consistency.
		parents := n.Hypernyms(id)
		if len(parents) == 0 {
			if n.Depth(id) != 1 {
				return fmt.Errorf("semnet: validate: root %s has depth %d, want 1", id, n.Depth(id))
			}
			continue
		}
		min := 0
		for i, p := range parents {
			if i == 0 || n.Depth(p) < min {
				min = n.Depth(p)
			}
		}
		if n.Depth(id) != min+1 {
			return fmt.Errorf("semnet: validate: depth(%s) = %d, want shallowest parent %d + 1",
				id, n.Depth(id), min)
		}
		// Cumulative-frequency monotonicity for single-parent concepts.
		if len(parents) == 1 && n.cumFreq(parents[0]) < n.cumFreq(id)-1e-9 {
			return fmt.Errorf("semnet: validate: cumFreq(%s)=%g < cumFreq(%s)=%g",
				parents[0], n.cumFreq(parents[0]), id, n.cumFreq(id))
		}
	}
	// Lemma index completeness and ordering.
	for l, lemma := range n.labels {
		ids := n.sensesS[l]
		for i, id := range ids {
			c := n.Concept(id)
			if c == nil {
				return fmt.Errorf("semnet: validate: lemma %q indexes unknown %q", lemma, id)
			}
			if i > 0 && n.Concept(ids[i-1]).Freq < c.Freq {
				return fmt.Errorf("semnet: validate: senses of %q not frequency-ordered", lemma)
			}
			found := false
			for _, l := range c.Lemmas {
				if l == lemma {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("semnet: validate: lemma %q indexes %s which lacks it", lemma, id)
			}
		}
	}
	return nil
}

func (n *Network) hasEdge(from, to ConceptID, rel Relation) bool {
	for _, e := range n.Edges(from) {
		if e.To == to && e.Rel == rel {
			return true
		}
	}
	return false
}
