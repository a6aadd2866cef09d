// Package gold simulates the human annotators of the paper's experiments
// (§4.2–4.3): five test subjects who (a) rated the ambiguity of ~12-13
// pre-selected nodes per document on an integer 0-4 scale and (b) chose the
// appropriate WordNet sense for each of those nodes.
//
// The original human judgments are unavailable, so the package models them:
//
//   - Sense annotations: each simulated annotator reports the corpus gold
//     sense with high probability and a random competing sense of the same
//     lemma otherwise; the per-node human answer is the majority vote.
//
//   - Ambiguity ratings follow the perceptual account the paper itself
//     gives for Table 2. Human perception of a node's ambiguity is driven
//     by the label's polysemy *discounted by how obviously its context
//     resolves it*. In small, flat documents the annotator sees the whole
//     context at once, so the obviousness discount dominates (the paper's
//     "state under address" example: rated 0/4 despite 8 WordNet senses);
//     in large, deep documents the discount is weak and perceived ambiguity
//     tracks polysemy — which is what makes Table 2 strongly positive only
//     for Group 1.
//
// All randomness is seeded; the same seed reproduces the same panel.
package gold

import (
	"math/rand"
	"sort"

	"repro/internal/ambiguity"
	"repro/internal/corpus"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/xmltree"
)

// Panel is a simulated group of annotators.
type Panel struct {
	// Annotators is the panel size (the paper used 5).
	Annotators int
	// SenseAccuracy is each annotator's probability of reporting the gold
	// sense.
	SenseAccuracy float64
	// RatingNoise is the standard deviation of the Gaussian noise added to
	// each annotator's perceived ambiguity (on the 0-1 scale).
	RatingNoise float64
	// Seed drives the panel's pseudo-randomness.
	Seed int64
}

// DefaultPanel mirrors the paper's setup: five annotators, high agreement
// on sense choice, noticeable disagreement on the fuzzier 0-4 ambiguity
// ratings.
func DefaultPanel(seed int64) Panel {
	return Panel{Annotators: 5, SenseAccuracy: 0.92, RatingNoise: 0.42, Seed: seed}
}

// SelectNodes picks up to perDoc gold-bearing nodes of the document,
// mirroring the paper's random pre-selection of 12-13 nodes per document.
// Selection is deterministic per panel seed and document name.
func (p Panel) SelectNodes(d corpus.Doc, perDoc int) []*xmltree.Node {
	var candidates []*xmltree.Node
	for _, n := range d.Tree.Nodes() {
		if n.Gold != "" {
			candidates = append(candidates, n)
		}
	}
	rng := rand.New(rand.NewSource(p.Seed ^ hashString(d.Name)))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > perDoc {
		candidates = candidates[:perDoc]
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Index < candidates[j].Index })
	return candidates
}

// SenseVotes returns each annotator panel's raw vote counts per node
// (sense id -> votes), the basis for both the majority annotation and
// inter-annotator agreement statistics (eval.FleissKappa).
func (p Panel) SenseVotes(net *semnet.Network, nodes []*xmltree.Node) map[*xmltree.Node]map[string]int {
	out := make(map[*xmltree.Node]map[string]int, len(nodes))
	for _, n := range nodes {
		rng := rand.New(rand.NewSource(p.Seed ^ int64(n.Index)*2654435761 ^ hashString(n.Raw)))
		votes := map[string]int{}
		for a := 0; a < p.Annotators; a++ {
			if rng.Float64() < p.SenseAccuracy {
				votes[n.Gold]++
				continue
			}
			votes[p.competingSense(net, n, rng)]++
		}
		out[n] = votes
	}
	return out
}

// AnnotateSenses returns the panel's majority-vote sense for each node.
// Nodes whose gold sense is a compound pair are voted as a unit.
func (p Panel) AnnotateSenses(net *semnet.Network, nodes []*xmltree.Node) map[*xmltree.Node]string {
	out := make(map[*xmltree.Node]string, len(nodes))
	for n, votes := range p.SenseVotes(net, nodes) {
		best, bestN := n.Gold, 0
		for s, c := range votes {
			if c > bestN || (c == bestN && s < best) {
				best, bestN = s, c
			}
		}
		out[n] = best
	}
	return out
}

// competingSense returns a plausible wrong answer: another sense of the
// node's (first) token, or the gold itself for monosemous labels.
func (p Panel) competingSense(net *semnet.Network, n *xmltree.Node, rng *rand.Rand) string {
	tokens := n.Tokens
	if len(tokens) == 0 {
		tokens = []string{n.Label}
	}
	senses := net.Senses(tokens[0])
	if len(senses) <= 1 {
		return n.Gold
	}
	s := senses[rng.Intn(len(senses))]
	return string(s)
}

// RatingModel holds the perceptual parameters of the ambiguity-rating
// simulation.
type RatingModel struct {
	// ObviousnessSmall and ObviousnessLarge are the context-discount
	// weights for small (flat) and large (deep) documents; the effective
	// weight interpolates by document size.
	ObviousnessSmall float64
	ObviousnessLarge float64
	// SmallDocNodes is the size at or below which a document counts as
	// fully surveyable by the annotator.
	SmallDocNodes int
	// LargeDocNodes is the size at or above which the discount bottoms out.
	LargeDocNodes int
	// ObviousnessCutoff is the context similarity above which an annotator
	// simply "sees" the intended meaning and reports no ambiguity at all —
	// the paper's "state under address" effect (§4.2): 8 WordNet senses,
	// rated 0/4 by every tester.
	ObviousnessCutoff float64
}

// DefaultRatingModel returns the calibration used by the Table 2
// experiment.
func DefaultRatingModel() RatingModel {
	return RatingModel{
		ObviousnessSmall:  0.95,
		ObviousnessLarge:  0.15,
		SmallDocNodes:     110,
		LargeDocNodes:     170,
		ObviousnessCutoff: 0.55,
	}
}

// RateAmbiguity returns the panel's mean ambiguity rating (integer 0-4
// per annotator, averaged) for each node of the document.
func (p Panel) RateAmbiguity(net *semnet.Network, d corpus.Doc, nodes []*xmltree.Node, m RatingModel) map[*xmltree.Node]float64 {
	size := d.Tree.Len()
	w := obviousnessWeight(size, m)
	sim := simmeasure.New(net, simmeasure.EdgeOnly())
	out := make(map[*xmltree.Node]float64, len(nodes))
	for _, n := range nodes {
		perceived := p.perceivedAmbiguity(net, sim, n, w, m)
		rng := rand.New(rand.NewSource(p.Seed ^ int64(n.Index)*40503 ^ hashString(d.Name)))
		var sum float64
		for a := 0; a < p.Annotators; a++ {
			v := perceived + rng.NormFloat64()*p.RatingNoise
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			sum += float64(int(v*4 + 0.5)) // integer rating 0..4
		}
		out[n] = sum / float64(p.Annotators)
	}
	return out
}

// obviousnessWeight interpolates the context discount by document size.
func obviousnessWeight(size int, m RatingModel) float64 {
	if size <= m.SmallDocNodes {
		return m.ObviousnessSmall
	}
	if size >= m.LargeDocNodes {
		return m.ObviousnessLarge
	}
	t := float64(size-m.SmallDocNodes) / float64(m.LargeDocNodes-m.SmallDocNodes)
	return m.ObviousnessSmall + t*(m.ObviousnessLarge-m.ObviousnessSmall)
}

// perceivedAmbiguity models one annotator's pre-noise impression in [0, 1]:
// normalized polysemy discounted by how strongly the immediate context pins
// down the gold sense. Past the obviousness cutoff the discount is total —
// the annotator simply reads the intended meaning off the context and
// reports no ambiguity, however many dictionary senses the word has.
func (p Panel) perceivedAmbiguity(net *semnet.Network, sim *simmeasure.Measure, n *xmltree.Node, w float64, m RatingModel) float64 {
	label := n.Label
	if len(n.Tokens) > 0 {
		label = n.Tokens[0]
	}
	senses := net.PolysemyOf(label)
	if senses <= 1 {
		return 0
	}
	// Perceived polysemy saturates: humans do not distinguish 12 from 20
	// dictionary senses.
	poly := float64(senses-1) / 6
	if poly > 1 {
		poly = 1
	}
	obv := p.contextObviousness(net, sim, n)
	discount := w * obv * 0.75
	if obv >= m.ObviousnessCutoff {
		discount = w
	}
	v := poly * (1 - discount)
	if v < 0 {
		return 0
	}
	return v
}

// contextObviousness estimates how clearly the surrounding labels resolve
// the node's meaning: the maximum over context senses of (a) edge-based
// similarity with the gold sense, and (b) direct relation proximity — a
// context sense within two relation hops of the gold sense (part-of a
// publication, member of a club, ...) makes the meaning immediately
// apparent to a human reader even when the taxonomic branches diverge.
func (p Panel) contextObviousness(net *semnet.Network, sim *simmeasure.Measure, n *xmltree.Node) float64 {
	goldID := semnet.ConceptID(firstConcept(n.Gold))
	g, ok := net.Dense(goldID)
	if !ok {
		return 0 // no gold sense, or one outside the network: nothing is obvious
	}
	near := net.Neighborhood(goldID, 2)
	best := 0.0
	for _, m := range sphere.Sphere(n, 2) {
		if m.Node == n {
			continue
		}
		for _, t := range tokensOf(m.Node) {
			for _, s := range net.SensesDense(t) {
				id, _ := net.ConceptAt(s)
				if _, hop := near[id]; hop && s != g {
					return 0.9
				}
				if v := sim.SimDense(g, s); v > best {
					best = v
				}
			}
		}
	}
	return best
}

func tokensOf(n *xmltree.Node) []string {
	if len(n.Tokens) > 0 {
		return n.Tokens
	}
	return []string{n.Label}
}

// firstConcept returns the first id of a possibly compound gold annotation
// ("a+b" -> "a").
func firstConcept(gold string) string {
	for i := 0; i < len(gold); i++ {
		if gold[i] == '+' {
			return gold[:i]
		}
	}
	return gold
}

// SystemRatings computes the system-side ambiguity degrees for the same
// nodes, under the given weight configuration — the x-variable of the
// Table 2 correlations.
func SystemRatings(net *semnet.Network, t *xmltree.Tree, nodes []*xmltree.Node, w ambiguity.Weights) map[*xmltree.Node]float64 {
	out := make(map[*xmltree.Node]float64, len(nodes))
	for _, n := range nodes {
		out[n] = ambiguity.Degree(n, t, net, w)
	}
	return out
}

// hashString is a small deterministic string hash (FNV-1a) used to derive
// per-document seeds.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}
