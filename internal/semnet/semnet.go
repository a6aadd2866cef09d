// Package semnet implements the semantic network data model of Definition 2
// in the XSDF paper: SN = (C, L, G, E, R, f, g) where C is a set of concept
// nodes (synsets), L concept labels, G glosses, E edges, and R semantic
// relation kinds. The weighted variant S̄N additionally carries concept
// frequencies statistically quantified from a text corpus, which the
// node-based (information content) similarity measure requires.
//
// The package is knowledge-base agnostic: internal/wordnet provides an
// embedded WordNet-like instance plus a synthetic generator.
package semnet

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// ConceptID uniquely identifies a concept (word sense). The embedded
// lexicon uses WordNet-style keys such as "movie.n.01".
type ConceptID string

// Relation enumerates the semantic relation kinds of R (Definition 2).
// Synonymy is not an edge kind: synonymous words are integrated in the
// concepts themselves as lemma sets.
type Relation uint8

const (
	// Hypernym links a concept to a more general concept (Is-A).
	Hypernym Relation = iota
	// Hyponym is the inverse of Hypernym (Has-Instance / specialization).
	Hyponym
	// Meronym links a whole to one of its parts (Has-Part).
	Meronym
	// Holonym is the inverse of Meronym (Part-Of).
	Holonym
	// Related is a catch-all associative relation (see-also, domain).
	Related
	numRelations
)

// String returns the relation name.
func (r Relation) String() string {
	switch r {
	case Hypernym:
		return "hypernym"
	case Hyponym:
		return "hyponym"
	case Meronym:
		return "meronym"
	case Holonym:
		return "holonym"
	case Related:
		return "related"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// Inverse returns the relation pointing the other way along the same edge.
func (r Relation) Inverse() Relation {
	switch r {
	case Hypernym:
		return Hyponym
	case Hyponym:
		return Hypernym
	case Meronym:
		return Holonym
	case Holonym:
		return Meronym
	default:
		return Related
	}
}

// Edge is one directed, labeled link of E.
type Edge struct {
	To  ConceptID
	Rel Relation
}

// Concept is one node of C with its label set (f: C -> L, L^n) and gloss
// (f: C -> G). Freq is the corpus occurrence count used by the weighted
// network S̄N.
type Concept struct {
	ID     ConceptID
	Lemmas []string // synonyms; Lemmas[0] is the primary label
	Gloss  string
	Freq   float64
}

// Label returns the concept's primary label (c.ℓ in the paper).
func (c *Concept) Label() string {
	if len(c.Lemmas) == 0 {
		return string(c.ID)
	}
	return c.Lemmas[0]
}

// Network is an immutable semantic network built by a Builder. All lookup
// methods are safe for concurrent use.
//
// Alongside the string-keyed API the Network carries a dense integer
// representation (see index.go): concepts and every derived quantity the
// scoring hot path reads — depth, information content, adjacency,
// ancestor lists, expanded glosses — are stored in flat arrays indexed by
// dense concept id, and the label universe (all lemmas, sorted) maps
// labels to dense label ids, which serve as vector dimensions and index
// the per-lemma sense lists. The string-keyed methods delegate through the
// concept index and the label ids, so both views are always consistent.
type Network struct {
	concepts []Concept     // insertion order
	order    []ConceptID   // concepts[d].ID, shared with the index
	edges    [][]Edge      // ConceptID view of edgesD, same order
	sensesS  [][]ConceptID // ConceptID view of sensesL

	maxPolysemy int
	maxDepth    int
	totalFreq   float64

	// Dense representation, indexed by the position of each concept in the
	// immutable insertion order. Built once in Build; never mutated.
	index    *ConceptIndex
	depthD   []int32       // hypernym depth; roots have depth 1
	cumFreqD []float64     // own freq + all hyponym descendants
	icD      []float64     // precomputed -log(cumFreq/totalFreq)
	edgesD   [][]DenseEdge // integer adjacency mirroring edges

	// Label universe: every distinct lemma, sorted lexicographically, so
	// dense label ids preserve string order. labelOfD maps each concept to
	// the dimension of its primary label; sensesL maps each label id to
	// its dense senses in frequency order.
	labels   []string
	labelID  map[string]int32
	labelOfD []int32
	sensesL  [][]DenseID

	// Hot-path precomputations, all derived at Build time from the immutable
	// edge set: per-concept ancestor visit lists (BFS order, exactly the
	// walk LCS historically did) plus sorted copies for O(log d) membership
	// feed LCS without re-walking the hypernym DAG per call, and expanded
	// glosses, interned to token ids, feed the gloss-overlap kernel without
	// re-concatenating neighbor glosses or comparing strings per pair. The
	// network is immutable after Build, so these never invalidate.
	ancListD   [][]int32    // BFS-from-concept visit order over hypernyms
	ancSortedD [][]int32    // same contents, ascending (binary-search membership)
	glossVocab []string     // interned gloss stems, indexed by token id
	glossOccD  [][]GlossOcc // expanded gloss occurrences, sorted by (token, position)

	lcsMemo lcsCache // concurrency-safe LCS memo (taxonomy walks dominate Sim cost)

	// checksum memoizes Checksum() — the SHA-256 of the canonical Save
	// bytes, the in-memory identity the hot-swap layer reports.
	checksumOnce sync.Once
	checksum     string

	// file is the identity of the codec file ReadFile read the network
	// from; nil for networks built in memory.
	file *FileInfo
}

// lcsCache memoizes LCS results under sharded locks so one immutable
// Network can serve many goroutines without contention on a single mutex.
// Keys are packed dense pairs; shard selection is a two-multiply integer
// mix (mix64), so a lookup allocates nothing and hashes no strings.
const lcsShardCount = 32

type lcsCache struct {
	shards [lcsShardCount]lcsShard
}

type lcsShard struct {
	mu sync.RWMutex
	m  map[uint64]lcsEntry
}

type lcsEntry struct {
	d  DenseID
	ok bool
}

func (c *lcsCache) init() {
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]lcsEntry)
	}
}

func lower(s string) string { return strings.ToLower(s) }

// Len returns |C|.
func (n *Network) Len() int { return len(n.order) }

// Concept returns the concept with the given id, or nil when unknown.
func (n *Network) Concept(id ConceptID) *Concept {
	if d, ok := n.index.Dense(id); ok {
		return &n.concepts[d]
	}
	return nil
}

// Concepts returns all concept ids in deterministic (insertion) order.
func (n *Network) Concepts() []ConceptID { return n.order }

// HasLemma reports whether the word or multi-word expression names at least
// one concept. It satisfies lingproc.Lexicon.
func (n *Network) HasLemma(lemma string) bool {
	_, ok := n.labelID[strings.ToLower(lemma)]
	return ok
}

// Senses returns the concepts whose lemma sets contain the given word or
// expression — senses(x.ℓ) in the paper. The result is ordered by
// decreasing concept frequency (ties keep insertion order), mirroring
// WordNet's frequency-ordered sense lists; Senses(w)[0] is the dominant
// sense.
func (n *Network) Senses(lemma string) []ConceptID {
	if l, ok := n.labelID[strings.ToLower(lemma)]; ok {
		return n.sensesS[l]
	}
	return nil
}

// PolysemyOf returns the number of senses of the lemma.
func (n *Network) PolysemyOf(lemma string) int { return len(n.Senses(lemma)) }

// MaxPolysemy returns Max(senses(SN)): the maximum number of senses any
// single word/expression has (33 for "head" in WordNet 2.1).
func (n *Network) MaxPolysemy() int { return n.maxPolysemy }

// Edges returns the outgoing edges of id (inverse edges are materialized at
// build time, so the adjacency is effectively undirected with typed arcs).
func (n *Network) Edges(id ConceptID) []Edge {
	if d, ok := n.index.Dense(id); ok {
		return n.edges[d]
	}
	return nil
}

// Hypernyms returns the direct hypernyms of id.
func (n *Network) Hypernyms(id ConceptID) []ConceptID {
	var out []ConceptID
	for _, e := range n.Edges(id) {
		if e.Rel == Hypernym {
			out = append(out, e.To)
		}
	}
	return out
}

// Depth returns the concept's hypernym depth, where root concepts (those
// without hypernyms) have depth 1. Unknown ids yield 0.
func (n *Network) Depth(id ConceptID) int {
	if d, ok := n.index.Dense(id); ok {
		return int(n.depthD[d])
	}
	return 0
}

// MaxDepth returns the maximum hypernym depth in the network.
func (n *Network) MaxDepth() int { return n.maxDepth }

// IC returns the information content -log p(c) of the concept under the
// network's frequency annotation, where p(c) counts the concept and all of
// its hyponym descendants (Resnik's convention). Concepts with zero
// cumulative frequency get the maximum observed IC.
func (n *Network) IC(id ConceptID) float64 {
	if d, ok := n.index.Dense(id); ok {
		return n.icD[d]
	}
	return n.maxIC()
}

// cumFreq returns the cumulative (descendant-inclusive) frequency of a
// concept; unknown ids yield 0.
func (n *Network) cumFreq(id ConceptID) float64 {
	if d, ok := n.index.Dense(id); ok {
		return n.cumFreqD[d]
	}
	return 0
}

func (n *Network) maxIC() float64 {
	if n.totalFreq <= 0 {
		return 0
	}
	return -math.Log(0.5 / n.totalFreq)
}

// LCS returns the lowest common subsumer of a and b in the hypernym
// hierarchy (the deepest shared ancestor, where a concept is an ancestor of
// itself) and true, or "" and false when the two concepts share no ancestor.
// Known pairs route through the int-keyed memo (LCSDense); ids outside the
// network fall back to an uncached string walk.
func (n *Network) LCS(a, b ConceptID) (ConceptID, bool) {
	da, oka := n.index.Dense(a)
	db, okb := n.index.Dense(b)
	if oka && okb {
		d, ok := n.LCSDense(da, db)
		if !ok {
			return "", false
		}
		return n.index.ids[d], true
	}
	return n.lcsComputeSlow(a, b)
}

// lcsComputeSlow handles ConceptIDs that are not part of the network: it
// scans b's ancestors in BFS visit order (the same walk the dense path
// reproduces, tie-breaks included) and keeps the deepest one that is also
// an ancestor of a.
func (n *Network) lcsComputeSlow(a, b ConceptID) (ConceptID, bool) {
	anc := ancestorSetOf(n.ancestorList(a))
	list := n.ancestorList(b)
	var best ConceptID
	bestDepth := -1
	for _, cur := range list {
		if _, ok := anc[cur]; ok {
			if d := n.Depth(cur); d > bestDepth {
				best, bestDepth = cur, d
			}
		}
	}
	if bestDepth < 0 {
		return "", false
	}
	return best, true
}

// ancestorList returns a and all its transitive hypernyms in BFS visit
// order (dedup on first visit), matching the walk LCS historically did.
func (n *Network) ancestorList(a ConceptID) []ConceptID {
	var out []ConceptID
	seen := map[ConceptID]struct{}{}
	queue := []ConceptID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if _, dup := seen[cur]; dup {
			continue
		}
		seen[cur] = struct{}{}
		out = append(out, cur)
		queue = append(queue, n.Hypernyms(cur)...)
	}
	return out
}

func ancestorSetOf(list []ConceptID) map[ConceptID]struct{} {
	out := make(map[ConceptID]struct{}, len(list))
	for _, id := range list {
		out[id] = struct{}{}
	}
	return out
}

// GlossTokens returns the tokenized, stop-word-free, stemmed gloss of the
// concept (nil for unknown ids). It is computed on demand: the scoring
// core reads the interned occurrence lists instead (GlossOccurrencesDense).
func (n *Network) GlossTokens(id ConceptID) []string {
	if c := n.Concept(id); c != nil {
		return tokenizeGloss(c.Gloss)
	}
	return nil
}

// ExpandedGlossTokens returns the concept's gloss tokens concatenated with
// those of its direct neighbors over all relation kinds, in edge order —
// the "extended" gloss of the Banerjee-Pedersen overlap measure. The
// strings are rebuilt on demand from the interned occurrence list, so
// each call returns a fresh slice; nil for unknown ids.
func (n *Network) ExpandedGlossTokens(id ConceptID) []string {
	d, ok := n.index.Dense(id)
	if !ok {
		return nil
	}
	occ := n.glossOccD[d]
	out := make([]string, len(occ))
	for _, o := range occ {
		out[o.Pos] = n.glossVocab[o.Tok]
	}
	return out
}

// Neighborhood returns the concepts within hop distance <= radius of id
// (over all relation kinds), mapped to their distance. The center is
// included at distance 0. This is the semantic-network analogue of the XML
// sphere neighborhood (§3.5.2): rings are built using the semantic
// relations connecting concepts.
func (n *Network) Neighborhood(id ConceptID, radius int) map[ConceptID]int {
	out := map[ConceptID]int{id: 0}
	frontier := []ConceptID{id}
	for d := 1; d <= radius; d++ {
		var next []ConceptID
		for _, cur := range frontier {
			for _, e := range n.Edges(cur) {
				if _, dup := out[e.To]; dup {
					continue
				}
				out[e.To] = d
				next = append(next, e.To)
			}
		}
		frontier = next
	}
	return out
}

// Lemmas returns every distinct word/expression in the network, sorted.
// Useful for tests and corpus generation.
func (n *Network) Lemmas() []string {
	return append(make([]string, 0, len(n.labels)), n.labels...)
}

// TotalFreq returns the sum of all concept frequencies (the corpus size
// proxy of the weighted network S̄N).
func (n *Network) TotalFreq() float64 { return n.totalFreq }
