// Package classify implements semantic XML document classification —
// another application motivating the paper (§1: "XML document
// classification and clustering: grouping together documents based on
// their semantic similarities, rather than performing syntactic-only
// processing").
//
// A document is reduced to its weighted concept profile (counts of the
// concepts XSDF assigned, compound senses split); a class is the averaged
// profile of its training documents; classification assigns the class
// whose centroid is semantically closest. Two document-to-centroid
// similarities are available: exact concept cosine (fast, syntactic on the
// concept level), and relaxed similarity that scores non-identical
// concepts with a semantic similarity measure — so a movie document using
// "film" still matches a class trained on "picture"-tagged documents even
// when disambiguation produced related-but-different concepts.
package classify

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/xmltree"
)

// Profile is a weighted concept vector describing one document or class.
type Profile map[semnet.ConceptID]float64

// DocumentProfile extracts the concept profile of a disambiguated tree:
// concept counts L2-normalized. Nodes without senses are ignored.
func DocumentProfile(t *xmltree.Tree) Profile {
	p := Profile{}
	for _, n := range t.Nodes() {
		if n.Sense == "" {
			continue
		}
		for _, part := range strings.Split(n.Sense, "+") {
			p[semnet.ConceptID(part)]++
		}
	}
	return p.normalize()
}

// concepts returns the profile's concepts in ascending order, the order
// every sum over a profile runs in, so equal profiles sum to equal bits.
func (p Profile) concepts() []semnet.ConceptID {
	out := make([]semnet.ConceptID, 0, len(p))
	for c := range p {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

func (p Profile) normalize() Profile {
	var norm float64
	for _, c := range p.concepts() {
		norm += p[c] * p[c]
	}
	if norm == 0 {
		return p
	}
	norm = math.Sqrt(norm)
	for c := range p {
		p[c] /= norm
	}
	return p
}

// Cosine is the exact concept-overlap similarity of two profiles.
func Cosine(a, b Profile) float64 {
	var dot float64
	for _, c := range a.concepts() {
		dot += a[c] * b[c]
	}
	return dot
}

// Classifier is a centroid (Rocchio-style) classifier over concept
// profiles.
type Classifier struct {
	net       *semnet.Network
	sim       *simmeasure.Measure
	centroids map[string]Profile
	// RelaxedWeight scales the contribution of semantically-similar (but
	// non-identical) concept pairs in relaxed scoring; 0 disables
	// relaxation.
	RelaxedWeight float64
	// MinSim is the semantic similarity floor below which concept pairs
	// contribute nothing to relaxed scoring.
	MinSim float64
}

// New returns an empty classifier using the given network for relaxed
// similarity.
func New(net *semnet.Network) *Classifier {
	return &Classifier{
		net:           net,
		sim:           simmeasure.New(net, simmeasure.EqualWeights()),
		centroids:     map[string]Profile{},
		RelaxedWeight: 0.5,
		MinSim:        0.6,
	}
}

// Train adds disambiguated documents to a class, updating its centroid.
func (c *Classifier) Train(class string, trees ...*xmltree.Tree) {
	cen := c.centroids[class]
	if cen == nil {
		cen = Profile{}
		c.centroids[class] = cen
	}
	for _, t := range trees {
		for concept, w := range DocumentProfile(t) {
			cen[concept] += w
		}
	}
	c.centroids[class] = cen.normalize()
}

// Classes returns the trained class names, sorted.
func (c *Classifier) Classes() []string {
	out := make([]string, 0, len(c.centroids))
	for name := range c.centroids {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Prediction is one class with its similarity score.
type Prediction struct {
	Class string
	Score float64
}

// Classify ranks all classes for a disambiguated document, best first.
func (c *Classifier) Classify(t *xmltree.Tree) []Prediction {
	doc := DocumentProfile(t)
	preds := make([]Prediction, 0, len(c.centroids))
	for class, cen := range c.centroids {
		preds = append(preds, Prediction{Class: class, Score: c.score(doc, cen)})
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Score != preds[j].Score {
			return preds[i].Score > preds[j].Score
		}
		return preds[i].Class < preds[j].Class
	})
	return preds
}

// Predict returns the best class, or an error for an untrained classifier
// or a profile-less document.
func (c *Classifier) Predict(t *xmltree.Tree) (string, error) {
	if len(c.centroids) == 0 {
		return "", fmt.Errorf("classify: no trained classes")
	}
	if len(DocumentProfile(t)) == 0 {
		return "", fmt.Errorf("classify: document has no disambiguated concepts")
	}
	return c.Classify(t)[0].Class, nil
}

// score combines exact cosine with relaxed cross-concept similarity.
func (c *Classifier) score(doc, cen Profile) float64 {
	exact := Cosine(doc, cen)
	if c.RelaxedWeight <= 0 {
		return exact
	}
	return exact + c.RelaxedWeight*c.relaxed(doc, cen)
}

// relaxed credits semantically close concept pairs that do not match
// exactly: for each document concept, the best similarity to any centroid
// concept above the floor, weighted by both masses.
func (c *Classifier) relaxed(doc, cen Profile) float64 {
	var total float64
	cens := cen.concepts()
	for _, dc := range doc.concepts() {
		best := 0.0
		for _, cc := range cens {
			if dc == cc {
				continue // exact overlap already counted
			}
			if s := c.sim.Sim(dc, cc); s >= c.MinSim && s*cen[cc] > best {
				best = s * cen[cc]
			}
		}
		total += doc[dc] * best
	}
	return total
}
