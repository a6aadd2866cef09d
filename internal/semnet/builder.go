package semnet

import (
	"fmt"
	"math"
	"repro/internal/lingproc"
	"sort"
	"strings"
)

// Builder assembles a Network incrementally. It is not safe for concurrent
// use; Build finalizes and returns an immutable Network.
type Builder struct {
	concepts map[ConceptID]*Concept
	order    []ConceptID
	edges    map[ConceptID][]Edge
	errs     []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		concepts: make(map[ConceptID]*Concept),
		edges:    make(map[ConceptID][]Edge),
	}
}

// AddConcept registers a concept. Lemmas are lower-cased; the first lemma is
// the primary label. Duplicate ids are recorded as build errors.
func (b *Builder) AddConcept(id ConceptID, gloss string, freq float64, lemmas ...string) *Builder {
	if _, dup := b.concepts[id]; dup {
		b.errs = append(b.errs, fmt.Errorf("semnet: duplicate concept %q", id))
		return b
	}
	if len(lemmas) == 0 {
		b.errs = append(b.errs, fmt.Errorf("semnet: concept %q has no lemmas", id))
		return b
	}
	low := make([]string, len(lemmas))
	for i, l := range lemmas {
		low[i] = strings.ToLower(strings.TrimSpace(l))
	}
	b.concepts[id] = &Concept{ID: id, Lemmas: low, Gloss: gloss, Freq: freq}
	b.order = append(b.order, id)
	return b
}

// AddEdge registers a typed edge from -> to and its inverse to -> from.
// Unknown endpoints are recorded as build errors at Build time.
func (b *Builder) AddEdge(from ConceptID, rel Relation, to ConceptID) *Builder {
	b.edges[from] = append(b.edges[from], Edge{To: to, Rel: rel})
	b.edges[to] = append(b.edges[to], Edge{To: from, Rel: rel.Inverse()})
	return b
}

// IsA is shorthand for AddEdge(child, Hypernym, parent).
func (b *Builder) IsA(child, parent ConceptID) *Builder {
	return b.AddEdge(child, Hypernym, parent)
}

// PartOf is shorthand for AddEdge(part, Holonym, whole).
func (b *Builder) PartOf(part, whole ConceptID) *Builder {
	return b.AddEdge(part, Holonym, whole)
}

// Build validates the accumulated definitions and returns the finished
// network: lemma index, hypernym depths, cumulative frequencies, and gloss
// token caches are all precomputed here.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := &Network{
		concepts: b.concepts,
		order:    b.order,
		edges:    make(map[ConceptID][]Edge, len(b.edges)),
		byLemma:  make(map[string][]ConceptID),
	}
	// Validate and copy edges, deduplicating.
	for from, es := range b.edges {
		if _, ok := b.concepts[from]; !ok {
			return nil, fmt.Errorf("semnet: edge from unknown concept %q", from)
		}
		seen := make(map[Edge]struct{}, len(es))
		for _, e := range es {
			if _, ok := b.concepts[e.To]; !ok {
				return nil, fmt.Errorf("semnet: edge %q -> unknown concept %q", from, e.To)
			}
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			n.edges[from] = append(n.edges[from], e)
		}
	}
	// Lemma index. Senses of each lemma are ordered by decreasing concept
	// frequency (ties keep insertion order), mirroring WordNet's
	// frequency-ordered sense lists: Senses(lemma)[0] is the dominant
	// sense, which baselines and tie-breaks fall back to.
	for _, id := range b.order {
		for _, l := range b.concepts[id].Lemmas {
			n.byLemma[l] = append(n.byLemma[l], id)
		}
	}
	for _, ids := range n.byLemma {
		sort.SliceStable(ids, func(i, j int) bool {
			return b.concepts[ids[i]].Freq > b.concepts[ids[j]].Freq
		})
	}
	for _, ids := range n.byLemma {
		if len(ids) > n.maxPolysemy {
			n.maxPolysemy = len(ids)
		}
	}
	// Dense representation: assign every concept its int32 id (position in
	// the immutable insertion order) and translate the edge set, then run
	// every derived computation — depths, cumulative frequencies, gloss
	// caches, ancestor lists, expanded glosses — directly on the dense
	// arrays. The string-keyed API delegates through the index.
	n.index = newConceptIndex(n.order)
	N := len(n.order)
	n.edgesD = make([][]DenseEdge, N)
	for i, id := range n.order {
		es := n.edges[id]
		if len(es) == 0 {
			continue
		}
		ds := make([]DenseEdge, len(es))
		for j, e := range es {
			ds[j] = DenseEdge{To: n.index.dense[e.To], Rel: e.Rel}
		}
		n.edgesD[i] = ds
	}
	n.buildLabelTable()
	if err := n.computeDepths(); err != nil {
		return nil, err
	}
	n.computeCumFreq()
	n.icD = make([]float64, N)
	for d := 0; d < N; d++ {
		if cf := n.cumFreqD[d]; cf > 0 && n.totalFreq > 0 {
			n.icD[d] = -math.Log(cf / n.totalFreq)
		} else {
			n.icD[d] = n.maxIC()
		}
	}
	n.glossTokD = make([][]string, N)
	for i, id := range n.order {
		n.glossTokD[i] = tokenizeGloss(b.concepts[id].Gloss)
	}
	// Hot-path precomputations: ancestor lists (BFS visit order, plus a
	// sorted copy for binary-search membership) for LCS, expanded glosses
	// for the overlap measure. Both are pure functions of the now-frozen
	// edge set, so computing them once here removes the per-call taxonomy
	// walks and gloss concatenations that dominate similarity scoring.
	n.ancListD = make([][]int32, N)
	n.ancSortedD = make([][]int32, N)
	for d := 0; d < N; d++ {
		list := n.ancestorListDense(DenseID(d))
		n.ancListD[d] = list
		sorted := make([]int32, len(list))
		copy(sorted, list)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		n.ancSortedD[d] = sorted
	}
	n.expGlossD = make([][]string, N)
	for d := 0; d < N; d++ {
		n.expGlossD[d] = n.expandGlossDense(DenseID(d))
	}
	n.lcsMemo.init()
	return n, nil
}

// buildLabelTable freezes the label universe: every distinct lemma, sorted
// lexicographically so dense label order preserves string order, its
// frequency-ordered dense senses, and the primary-label dimension of each
// concept.
func (n *Network) buildLabelTable() {
	n.labels = make([]string, 0, len(n.byLemma))
	for l := range n.byLemma {
		n.labels = append(n.labels, l)
	}
	sort.Strings(n.labels)
	n.labelID = make(map[string]int32, len(n.labels))
	n.sensesL = make([][]DenseID, len(n.labels))
	for i, l := range n.labels {
		n.labelID[l] = int32(i)
		ids := n.byLemma[l]
		ds := make([]DenseID, len(ids))
		for j, id := range ids {
			ds[j] = n.index.dense[id]
		}
		n.sensesL[i] = ds
	}
	n.labelOfD = make([]int32, len(n.order))
	for i, id := range n.order {
		n.labelOfD[i] = n.labelID[n.concepts[id].Label()]
	}
}

// ancestorListDense returns d and all its transitive hypernyms in BFS visit
// order (dedup on first visit), matching the walk LCS historically did.
func (n *Network) ancestorListDense(d DenseID) []int32 {
	out := []int32{}
	seen := make(map[int32]struct{})
	queue := []int32{d}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if _, dup := seen[cur]; dup {
			continue
		}
		seen[cur] = struct{}{}
		out = append(out, cur)
		for _, e := range n.edgesD[cur] {
			if e.Rel == Hypernym {
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// MustBuild is Build that panics on error, for static embedded lexicons.
//
// Panic audit: this panic is unreachable from user input inside the
// framework — the only library caller (wordnet.Default) builds the
// embedded lexicon, which is validated by the wordnet package's tests at
// CI time. Networks assembled from user data should call Build and handle
// the error; additionally, the public pipeline entry points recover any
// escaping panic into an *xsdferrors.PanicError, so even a Must* misuse in
// caller code cannot take down a batch run.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// computeDepths assigns each concept its hypernym depth: roots (concepts
// without hypernyms) get depth 1, children one more than their shallowest
// parent. Cycles in the hypernym relation are rejected.
func (n *Network) computeDepths() error {
	// Kahn-style BFS from the roots downward along Hyponym edges, entirely
	// on the dense adjacency.
	N := len(n.order)
	n.depthD = make([]int32, N)
	indeg := make([]int32, N) // number of hypernyms
	for d := 0; d < N; d++ {
		for _, e := range n.edgesD[d] {
			if e.Rel == Hypernym {
				indeg[d]++
			}
		}
	}
	var queue []int32
	for d := 0; d < N; d++ {
		if indeg[d] == 0 {
			n.depthD[d] = 1
			queue = append(queue, int32(d))
		}
	}
	processed := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		processed++
		if int(n.depthD[cur]) > n.maxDepth {
			n.maxDepth = int(n.depthD[cur])
		}
		for _, e := range n.edgesD[cur] {
			if e.Rel != Hyponym {
				continue
			}
			child := e.To
			if d := n.depthD[child]; d == 0 || n.depthD[cur]+1 < d {
				n.depthD[child] = n.depthD[cur] + 1
			}
			indeg[child]--
			if indeg[child] == 0 {
				queue = append(queue, child)
			}
		}
	}
	if processed != N {
		return fmt.Errorf("semnet: hypernym cycle detected (%d of %d concepts reachable from roots)",
			processed, N)
	}
	return nil
}

// computeCumFreq propagates concept frequencies up the hypernym hierarchy:
// cumFreq(c) = Freq(c) + sum of Freq over all hyponym descendants, so that
// p(c) is monotone non-decreasing toward the roots as Resnik/Lin require.
func (n *Network) computeCumFreq() {
	// A descendant reachable through multiple parents must still be counted
	// once per distinct path-free semantics, so cumFreq is computed per
	// concept from its full descendant set instead of summing child
	// cumFreqs (which would double-count under multiple inheritance).
	// Descendants are accumulated in BFS visit order, which is fixed by the
	// frozen edge set, so the float sum is deterministic.
	N := len(n.order)
	n.cumFreqD = make([]float64, N)
	visited := make([]int32, N)
	epoch := int32(0)
	var queue []int32
	for d := 0; d < N; d++ {
		epoch++
		queue = append(queue[:0], int32(d))
		var sum float64
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if visited[cur] == epoch {
				continue
			}
			visited[cur] = epoch
			sum += n.concepts[n.order[cur]].Freq
			for _, e := range n.edgesD[cur] {
				if e.Rel == Hyponym {
					queue = append(queue, e.To)
				}
			}
		}
		n.cumFreqD[d] = sum
	}
	for d := 0; d < N; d++ {
		root := true
		for _, e := range n.edgesD[d] {
			if e.Rel == Hypernym {
				root = false
				break
			}
		}
		if root {
			n.totalFreq += n.cumFreqD[d]
		}
	}
}

// tokenizeGloss lower-cases, splits, and stems a gloss into content words
// for the gloss-overlap measure, dropping one-letter tokens and common stop
// words. Stemming makes morphological variants ("actor"/"actors",
// "recorded"/"recordings") overlap, as the Banerjee-Pedersen measure
// assumes of its preprocessed glosses.
func tokenizeGloss(gloss string) []string {
	fields := strings.FieldsFunc(strings.ToLower(gloss), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
	var out []string
	for _, f := range fields {
		if len(f) <= 1 || isGlossStop(f) {
			continue
		}
		out = append(out, lingproc.Stem(f))
	}
	return out
}

var glossStops = func() map[string]struct{} {
	m := map[string]struct{}{}
	for _, w := range strings.Fields("a an the of or and to in on for with by as at is are was were be that this it its from who which") {
		m[w] = struct{}{}
	}
	return m
}()

func isGlossStop(w string) bool {
	_, ok := glossStops[w]
	return ok
}

// SortedLemmaIndex renders the lemma -> sense-count mapping sorted by lemma,
// a debugging aid used by cmd tools.
func (n *Network) SortedLemmaIndex() []string {
	lemmas := n.Lemmas()
	out := make([]string, len(lemmas))
	for i, l := range lemmas {
		out[i] = fmt.Sprintf("%s (%d senses)", l, len(n.byLemma[l]))
	}
	sort.Strings(out)
	return out
}
