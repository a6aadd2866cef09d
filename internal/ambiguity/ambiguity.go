// Package ambiguity implements the node-selection module of XSDF (§3.3):
// the polysemy, depth, and density ambiguity factors (Propositions 1–3),
// the XML node ambiguity degree Amb_Deg (Definition 3), the structural
// richness degree Struct_Deg used to characterize test data (Eq. 14, §4.1),
// and the target-node selection policy.
package ambiguity

import (
	"math"
	"slices"
	"sort"

	"repro/internal/semnet"
	"repro/internal/xmltree"
)

// Weights are the independent user parameters w_Polysemy, w_Depth, and
// w_Density of Definition 3, each in [0, 1].
type Weights struct {
	Polysemy float64
	Depth    float64
	Density  float64
}

// EqualWeights is the sensible default of §3.3 (all factors considered
// equally: w_Polysemy = w_Depth = w_Density = 1).
func EqualWeights() Weights { return Weights{Polysemy: 1, Depth: 1, Density: 1} }

// HasNaN reports whether any weight is NaN, which Clamp lets through: a
// NaN weight makes every degree NaN, so no threshold selects any node.
func (w Weights) HasNaN() bool {
	return math.IsNaN(w.Polysemy) || math.IsNaN(w.Depth) || math.IsNaN(w.Density)
}

// Clamp forces every weight into [0, 1].
func (w Weights) Clamp() Weights {
	c := func(v float64) float64 { return math.Min(1, math.Max(0, v)) }
	return Weights{Polysemy: c(w.Polysemy), Depth: c(w.Depth), Density: c(w.Density)}
}

// Polysemy returns Amb_Polysemy(x.ℓ, SN) (Proposition 1, Eq. 1):
//
//	(senses(ℓ) - 1) / (Max(senses(SN)) - 1)  ∈ [0, 1]
//
// A label with a single sense (or none) scores 0, the most polysemous word
// of the network scores 1.
func Polysemy(label string, net *semnet.Network) float64 {
	maxP := net.MaxPolysemy()
	if maxP <= 1 {
		return 0
	}
	s := net.PolysemyOf(label)
	if s <= 1 {
		return 0
	}
	return float64(s-1) / float64(maxP-1)
}

// Depth returns Amb_Depth(x, T) (Proposition 2, Eq. 2):
//
//	1 - x.d / Max(depth(T))  ∈ [0, 1]
//
// Nodes near the root are more ambiguous (broader meaning).
func Depth(x *xmltree.Node, t *xmltree.Tree) float64 {
	md := t.MaxDepth()
	if md == 0 {
		return 1
	}
	return 1 - float64(x.Depth)/float64(md)
}

// Density returns Amb_Density(x, T) (Proposition 3, Eq. 3):
//
//	1 - x.f̄ / Max(f̄an-out(T))  ∈ [0, 1]
//
// where x.f̄ counts children with distinct labels. Fewer distinct child
// labels give the node fewer disambiguation hints, so it is more ambiguous.
func Density(x *xmltree.Node, t *xmltree.Tree) float64 {
	md := t.MaxDensity()
	if md == 0 {
		return 1
	}
	return 1 - float64(x.Density())/float64(md)
}

// Degree returns Amb_Deg(x, T, SN) (Definition 3, Eq. 4):
//
//	          w_Pol · Amb_Polysemy
//	─────────────────────────────────────────────────────  ∈ [0, 1]
//	w_Dep·(1-Amb_Depth) + w_Den·(1-Amb_Density) + 1
//
// For a compound label ("directed by") the degree is the average of the
// degrees of the constituent tokens (§3.3 special case). Assumption 4 holds
// by construction: a monosemous label has Amb_Polysemy = 0, hence degree 0.
func Degree(x *xmltree.Node, t *xmltree.Tree, net *semnet.Network, w Weights) float64 {
	w = w.Clamp()
	if len(x.Tokens) > 1 {
		var sum float64
		for _, tok := range x.Tokens {
			sum += degreeOfLabel(tok, x, t, net, w)
		}
		return sum / float64(len(x.Tokens))
	}
	return degreeOfLabel(x.Label, x, t, net, w)
}

func degreeOfLabel(label string, x *xmltree.Node, t *xmltree.Tree, net *semnet.Network, w Weights) float64 {
	num := w.Polysemy * Polysemy(label, net)
	den := w.Depth*(1-Depth(x, t)) + w.Density*(1-Density(x, t)) + 1
	return num / den
}

// StructWeights are the weights of the structural richness degree (Eq. 14).
type StructWeights struct {
	Depth   float64
	FanOut  float64
	Density float64
}

// EqualStructWeights is the experimental setting of §4.1
// (w_Depth = w_FanOut = w_Density = 1/3).
func EqualStructWeights() StructWeights {
	return StructWeights{Depth: 1.0 / 3, FanOut: 1.0 / 3, Density: 1.0 / 3}
}

// StructDegree returns Struct_Deg(x, T) (Eq. 14): the sum of normalized
// node depth, fan-out, and density, each scaled by its weight. High values
// indicate a highly structured tree, low values a relatively flat one.
func StructDegree(x *xmltree.Node, t *xmltree.Tree, w StructWeights) float64 {
	var v float64
	if md := t.MaxDepth(); md > 0 {
		v += w.Depth * float64(x.Depth) / float64(md)
	}
	if mf := t.MaxFanOut(); mf > 0 {
		v += w.FanOut * float64(x.FanOut()) / float64(mf)
	}
	if md := t.MaxDensity(); md > 0 {
		v += w.Density * float64(x.Density()) / float64(md)
	}
	return v
}

// TreeAmbiguity returns Amb_Deg averaged over all nodes of the tree — the
// "node ambiguity" feature used to group test documents (§4.1, Table 1).
func TreeAmbiguity(t *xmltree.Tree, net *semnet.Network, w Weights) float64 {
	if t.Len() == 0 {
		return 0
	}
	var sum float64
	for _, x := range t.Nodes() {
		sum += Degree(x, t, net, w)
	}
	return sum / float64(t.Len())
}

// TreeStructure returns Struct_Deg averaged over all nodes of the tree —
// the "node structure" feature of §4.1.
func TreeStructure(t *xmltree.Tree, w StructWeights) float64 {
	if t.Len() == 0 {
		return 0
	}
	var sum float64
	for _, x := range t.Nodes() {
		sum += StructDegree(x, t, w)
	}
	return sum / float64(t.Len())
}

// Select returns the target nodes for disambiguation: nodes with
// Amb_Deg(x) >= threshold, in preorder. Setting threshold = 0 selects every
// node (the "disambiguate all" mode existing approaches use); setting
// w.Polysemy = 0 makes every degree 0, disabling selection-by-ambiguity.
//
// A threshold <= 0 selects every node without computing a degree: with no
// NaN weight every degree is finite and >= 0. A NaN weight makes every
// degree NaN, which no threshold admits, so that case is still computed.
func Select(t *xmltree.Tree, net *semnet.Network, w Weights, threshold float64) []*xmltree.Node {
	if threshold <= 0 && !w.HasNaN() {
		return slices.Clone(t.Nodes())
	}
	var out []*xmltree.Node
	for _, x := range t.Nodes() {
		if Degree(x, t, net, w) >= threshold {
			out = append(out, x)
		}
	}
	return out
}

// AutoThreshold estimates Thresh_Amb from the degree distribution of the
// tree as mean + k·stddev, an implementation of the paper's "automatically
// estimated" threshold option. k = 0 selects roughly the upper half;
// negative k widens selection. Degenerate distributions yield 0 (select
// everything).
func AutoThreshold(t *xmltree.Tree, net *semnet.Network, w Weights, k float64) float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	degs := make([]float64, 0, n)
	var sum float64
	for _, x := range t.Nodes() {
		d := Degree(x, t, net, w)
		degs = append(degs, d)
		sum += d
	}
	mean := sum / float64(n)
	var varsum float64
	for _, d := range degs {
		varsum += (d - mean) * (d - mean)
	}
	std := math.Sqrt(varsum / float64(n))
	th := mean + k*std
	if th < 0 {
		return 0
	}
	sort.Float64s(degs)
	if th > degs[n-1] {
		// Never select nothing: cap at the maximum observed degree.
		th = degs[n-1]
	}
	return th
}
