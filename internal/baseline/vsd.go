package baseline

import (
	"math"

	"repro/internal/lingproc"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/xmltree"
)

// VSD is the Versatile Structural Disambiguation baseline of Mandreoli et
// al. [29] as described in §2.2 of the XSDF paper: the context of a node
// combines its ancestor (parent-direction) and descendant (sub-tree)
// neighborhoods, where an edge is "crossable" when a Gaussian decay
// function of its distance stays above a cutoff. Context nodes influence
// the target proportionally to that decay weight (the relational
// information model), and candidate senses are ranked with an edge-based
// semantic similarity (Leacock-Chodorow style; we use the Wu-Palmer
// implementation shared with XSDF, which is the same family).
type VSD struct {
	net *semnet.Network
	sim *simmeasure.Measure // edge-only, shared by every node
	// Sigma is the Gaussian decay width; the effective context radius is
	// the largest distance whose weight stays >= Cutoff.
	Sigma float64
	// Cutoff is the crossability threshold on the decay weight.
	Cutoff float64
}

// NewVSD returns the baseline with the decay parameters reported as
// defaults in the original study (sigma = 2, cutoff ≈ weight at distance 3).
func NewVSD(net *semnet.Network) *VSD {
	return &VSD{
		net:    net,
		sim:    simmeasure.New(net, simmeasure.EdgeOnly()),
		Sigma:  2,
		Cutoff: math.Exp(-9.0 / 8.0),
	}
}

// decay is the Gaussian edge-weight function exp(-d²/(2σ²)).
func (v *VSD) decay(dist int) float64 {
	d := float64(dist)
	return math.Exp(-d * d / (2 * v.Sigma * v.Sigma))
}

// maxRadius returns the largest distance still crossable under the cutoff.
func (v *VSD) maxRadius() int {
	r := 0
	for v.decay(r+1) >= v.Cutoff-1e-12 {
		r++
		if r > 64 {
			break
		}
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Node disambiguates one node. VSD tokenizes compound tags but processes
// token senses separately as distinct labels (per §3.2's contrast with
// XSDF): the first token's best sense is returned for evaluation. ok is
// false when no token of the label has senses.
func (v *VSD) Node(x *xmltree.Node) (semnet.ConceptID, bool) {
	var senses []semnet.DenseID
	for _, t := range contextTokens(x, v.net) {
		if s := v.net.SensesDense(t); len(s) > 0 {
			senses = s
			break
		}
	}
	if len(senses) == 0 {
		return "", false
	}
	id, _ := v.net.ConceptAt(v.best(x, senses))
	return id, true
}

// best returns the sense of x with the maximal decay-weighted similarity
// to its crossable context: each context node contributes its weight
// times the best similarity over the senses of its tokens, max(0,
// max_j Sim(s_p, s_j)) — the maximum of the tokens' word-memo values.
func (v *VSD) best(x *xmltree.Node, senses []semnet.DenseID) semnet.DenseID {
	if len(senses) == 1 {
		return senses[0]
	}
	members := sphere.Sphere(x, v.maxRadius())
	best := senses[0]
	bestScore := -1.0
	for _, sp := range senses {
		var score float64
		for _, m := range members {
			if m.Node == x {
				continue
			}
			w := v.decay(m.Dist)
			if w < v.Cutoff {
				continue
			}
			mx := 0.0
			for _, tok := range contextTokens(m.Node, v.net) {
				if l := v.net.LemmaDense(tok); l >= 0 {
					if s, _ := v.sim.WordSimDense(sp, l); s > mx {
						mx = s
					}
				}
			}
			score += w * mx
		}
		if score > bestScore {
			bestScore = score
			best = sp
		}
	}
	return best
}

// contextTokens returns the lexicon-normalized tokens of a node's raw
// label.
func contextTokens(n *xmltree.Node, net *semnet.Network) []string {
	tokens := lingproc.SplitCompound(n.Raw)
	for i, t := range tokens {
		tokens[i] = lingproc.Normalize(t, net)
	}
	return tokens
}

// Apply runs VSD over the target nodes, writing senses in place, and
// returns the number of senses assigned.
func (v *VSD) Apply(targets []*xmltree.Node) int {
	n := 0
	for _, x := range targets {
		if s, ok := v.Node(x); ok {
			x.Sense = string(s)
			n++
		}
	}
	return n
}
