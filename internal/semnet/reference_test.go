package semnet

// This file keeps the load path that the dense, allocation-light one
// replaced — the line scanner and per-line field split of Load, the
// string-keyed Builder and Build, and the FieldsFunc gloss splitter —
// verbatim but for the ref prefix on its names and the omitted LCS memo,
// as the oracle of TestLoadMatchesReference and FuzzLoadMatchesReference.

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lingproc"
)

// refNetwork is the field layout Build produced before the dense load
// path: string-keyed concept, edge and lemma maps beside the dense arrays.
type refNetwork struct {
	concepts map[ConceptID]*Concept
	order    []ConceptID
	edges    map[ConceptID][]Edge
	byLemma  map[string][]ConceptID

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

}

// refBuilder assembles a refNetwork incrementally. It is not safe for concurrent
// use; Build finalizes and returns an immutable refNetwork.
type refBuilder struct {
	concepts map[ConceptID]*Concept
	order    []ConceptID
	edges    map[ConceptID][]Edge
	errs     []error
}

// newRefBuilder returns an empty refBuilder.
func newRefBuilder() *refBuilder {
	return &refBuilder{
		concepts: make(map[ConceptID]*Concept),
		edges:    make(map[ConceptID][]Edge),
	}
}

// AddConcept registers a concept. Lemmas are lower-cased; the first lemma is
// the primary label. Duplicate ids are recorded as build errors.
func (b *refBuilder) AddConcept(id ConceptID, gloss string, freq float64, lemmas ...string) *refBuilder {
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
func (b *refBuilder) AddEdge(from ConceptID, rel Relation, to ConceptID) *refBuilder {
	b.edges[from] = append(b.edges[from], Edge{To: to, Rel: rel})
	b.edges[to] = append(b.edges[to], Edge{To: from, Rel: rel.Inverse()})
	return b
}

// Build validates the accumulated definitions and returns the finished
// network: lemma index, hypernym depths, cumulative frequencies, and the
// interned expanded glosses are all precomputed here.
func (b *refBuilder) Build() (*refNetwork, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	n := &refNetwork{
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
	n.index = newRefConceptIndex(n.order)
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
	// Hot-path precomputations: ancestor lists (BFS visit order, plus a
	// sorted copy for binary-search membership) for LCS, interned expanded
	// glosses for the overlap measure. Both are pure functions of the
	// now-frozen edge set, so computing them once here removes the per-call
	// taxonomy walks and gloss concatenations that dominate similarity
	// scoring.
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
	n.buildGlossIndex()
	return n, nil
}

// buildLabelTable freezes the label universe: every distinct lemma, sorted
// lexicographically so dense label order preserves string order, its
// frequency-ordered dense senses, and the primary-label dimension of each
// concept.
func (n *refNetwork) buildLabelTable() {
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

// buildGlossIndex interns the gloss vocabulary and stores every concept's
// expanded gloss — its own gloss tokens followed by those of its direct
// neighbors in edge order, the "extended" gloss of the Banerjee-Pedersen
// overlap — as (token id, position) occurrences sorted by token id, then
// position. Each distinct gloss word is stemmed once; the interning maps
// live only for the build. All occurrence lists share one backing array.
func (n *refNetwork) buildGlossIndex() {
	N := len(n.order)
	byWord := make(map[string]int32) // gloss word -> token id of its stem
	byStem := make(map[string]int32) // stem -> token id
	var own []int32                  // every concept's own tokens, concatenated
	ownEnd := make([]int, N)         // own[ownEnd[d-1]:ownEnd[d]] belongs to d
	for d, id := range n.order {
		for _, w := range refGlossWords(n.concepts[id].Gloss) {
			t, ok := byWord[w]
			if !ok {
				stem := lingproc.Stem(w)
				if t, ok = byStem[stem]; !ok {
					t = int32(len(n.glossVocab))
					n.glossVocab = append(n.glossVocab, stem)
					byStem[stem] = t
				}
				byWord[w] = t
			}
			own = append(own, t)
		}
		ownEnd[d] = len(own)
	}
	ownOf := func(d DenseID) []int32 {
		start := 0
		if d > 0 {
			start = ownEnd[d-1]
		}
		return own[start:ownEnd[d]]
	}
	total := 0
	for d := 0; d < N; d++ {
		total += len(ownOf(DenseID(d)))
		for _, e := range n.edgesD[d] {
			total += len(ownOf(e.To))
		}
	}
	flat := make([]GlossOcc, 0, total)
	n.glossOccD = make([][]GlossOcc, N)
	for d := 0; d < N; d++ {
		start := len(flat)
		add := func(toks []int32) {
			for _, t := range toks {
				flat = append(flat, GlossOcc{Tok: t, Pos: int32(len(flat) - start)})
			}
		}
		add(ownOf(DenseID(d)))
		for _, e := range n.edgesD[d] {
			add(ownOf(e.To))
		}
		occ := flat[start:len(flat):len(flat)]
		slices.SortFunc(occ, func(x, y GlossOcc) int {
			if c := cmp.Compare(x.Tok, y.Tok); c != 0 {
				return c
			}
			return cmp.Compare(x.Pos, y.Pos)
		})
		n.glossOccD[d] = occ
	}
}

// ancestorListDense returns d and all its transitive hypernyms in BFS visit
// order (dedup on first visit), matching the walk LCS historically did.
func (n *refNetwork) ancestorListDense(d DenseID) []int32 {
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

// computeDepths assigns each concept its hypernym depth: roots (concepts
// without hypernyms) get depth 1, children one more than their shallowest
// parent. Cycles in the hypernym relation are rejected.
func (n *refNetwork) computeDepths() error {
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
func (n *refNetwork) computeCumFreq() {
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

// refGlossWords returns the lower-cased content words of a gloss, unstemmed:
// maximal runs of ASCII letters and digits, without one-letter words and
// stop words.
func refGlossWords(gloss string) []string {
	fields := strings.FieldsFunc(strings.ToLower(gloss), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if len(f) <= 1 || refIsGlossStop(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

var refGlossStops = func() map[string]struct{} {
	m := map[string]struct{}{}
	for _, w := range strings.Fields("a an the of or and to in on for with by as at is are was were be that this it its from who which") {
		m[w] = struct{}{}
	}
	return m
}()

func refIsGlossStop(w string) bool {
	_, ok := refGlossStops[w]
	return ok
}

// refLoad parses a network from the text interchange format.
func refLoad(r io.Reader) (*refNetwork, error) {
	b := newRefBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "c":
			if len(fields) != 5 {
				return nil, fmt.Errorf("semnet: line %d: concept needs 5 tab-separated fields, got %d", lineNo, len(fields))
			}
			freq, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("semnet: line %d: bad frequency %q", lineNo, fields[2])
			}
			lemmas := strings.Split(fields[3], "|")
			b.AddConcept(ConceptID(fields[1]), fields[4], freq, lemmas...)
		case "r":
			if len(fields) != 4 {
				return nil, fmt.Errorf("semnet: line %d: relation needs 4 fields, got %d", lineNo, len(fields))
			}
			rel, err := parseRelation(fields[2])
			if err != nil {
				return nil, fmt.Errorf("semnet: line %d: %v", lineNo, err)
			}
			b.AddEdge(ConceptID(fields[1]), rel, ConceptID(fields[3]))
		default:
			return nil, fmt.Errorf("semnet: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("semnet: load: %w", err)
	}
	return b.Build()
}

func (n *refNetwork) maxIC() float64 {
	if n.totalFreq <= 0 {
		return 0
	}
	return -math.Log(0.5 / n.totalFreq)
}

func newRefConceptIndex(order []ConceptID) *ConceptIndex {
	ix := &ConceptIndex{
		ids:   order,
		dense: make(map[ConceptID]DenseID, len(order)),
	}
	for i, id := range order {
		ix.dense[id] = DenseID(i)
	}
	return ix
}
