package semnet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/lingproc"
)

// Builder assembles a Network incrementally. It is not safe for concurrent
// use; Build finalizes and returns an immutable Network, which takes over
// the Builder's storage, so a Builder is not used after Build.
//
// Concepts are stored densely in insertion order, their lemmas in one
// shared array, and edges as the list of AddEdge calls, so Build derives
// everything from dense ids: the only string-keyed work left is resolving
// each edge's endpoints once and interning each lemma and gloss word once.
type Builder struct {
	dense    map[ConceptID]DenseID // concept -> position in insertion order
	concepts []Concept             // insertion order; Build sets Lemmas
	lemmas   []string              // lower-cased lemmas, concept after concept
	lemmaEnd []int32               // lemmas[lemmaEnd[d-1]:lemmaEnd[d]] belong to concept d
	rels     []edgeCall            // AddEdge calls, in order
	errs     []error
}

// edgeCall is one AddEdge call; Build materializes the edge and its
// inverse.
type edgeCall struct {
	from, to ConceptID
	rel      Relation
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return newBuilder(0, 0) }

// newBuilder returns an empty Builder sized for the given numbers of
// concepts and relations.
func newBuilder(concepts, relations int) *Builder {
	return &Builder{
		dense:    make(map[ConceptID]DenseID, concepts),
		concepts: make([]Concept, 0, concepts),
		lemmas:   make([]string, 0, concepts),
		lemmaEnd: make([]int32, 0, concepts),
		rels:     make([]edgeCall, 0, relations),
	}
}

// AddConcept registers a concept. Lemmas are lower-cased; the first lemma is
// the primary label. Duplicate ids are recorded as build errors.
func (b *Builder) AddConcept(id ConceptID, gloss string, freq float64, lemmas ...string) *Builder {
	if !b.admit(id, len(lemmas)) {
		return b
	}
	for _, l := range lemmas {
		b.addLemma(l)
	}
	b.commit(id, gloss, freq)
	return b
}

// admit records the build error a new concept with that id and lemma
// count makes, if any, and reports whether the concept may be added.
func (b *Builder) admit(id ConceptID, lemmas int) bool {
	if _, dup := b.dense[id]; dup {
		b.errs = append(b.errs, fmt.Errorf("semnet: duplicate concept %q", id))
		return false
	}
	if lemmas == 0 {
		b.errs = append(b.errs, fmt.Errorf("semnet: concept %q has no lemmas", id))
		return false
	}
	return true
}

// addLemma appends a lemma of the concept being added, normalized.
func (b *Builder) addLemma(l string) {
	b.lemmas = append(b.lemmas, strings.ToLower(strings.TrimSpace(l)))
}

// commit appends an admitted concept whose lemmas addLemma has added.
func (b *Builder) commit(id ConceptID, gloss string, freq float64) {
	b.dense[id] = DenseID(len(b.concepts))
	b.concepts = append(b.concepts, Concept{ID: id, Gloss: gloss, Freq: freq})
	b.lemmaEnd = append(b.lemmaEnd, int32(len(b.lemmas)))
}

// AddEdge registers a typed edge from -> to and its inverse to -> from.
// Unknown endpoints are recorded as build errors at Build time.
func (b *Builder) AddEdge(from ConceptID, rel Relation, to ConceptID) *Builder {
	b.rels = append(b.rels, edgeCall{from: from, to: to, rel: rel})
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
// network: lemma index, hypernym depths, cumulative frequencies, and the
// interned expanded glosses are all precomputed here.
//
// Every derived computation runs on dense ids — a concept's position in
// the insertion order — over flat arrays: edge lists are filled in AddEdge
// order and deduplicated with a per-target relation mask, sense lists are
// bucketed in insertion order and stably sorted on a dense frequency array,
// and the descendant and ancestor walks reuse one stamp array and one
// queue. Each step visits and sums in the same order as the string-keyed
// build it replaced, so the network is the same bit for bit.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	N := len(b.concepts)
	n := &Network{concepts: b.concepts, order: make([]ConceptID, N)}
	start := int32(0)
	for d := range n.concepts {
		end := b.lemmaEnd[d]
		n.concepts[d].Lemmas = b.lemmas[start:end:end]
		n.order[d] = n.concepts[d].ID
		start = end
	}
	n.index = &ConceptIndex{ids: n.order, dense: b.dense}
	stamp := make([]int32, N) // visit marks, shared by the walks below
	if err := n.buildEdges(b.rels, stamp); err != nil {
		return nil, err
	}
	n.buildLabelTable(b.lemmas)
	if err := n.computeDepths(); err != nil {
		return nil, err
	}
	clear(stamp)
	n.computeCumFreq(stamp)
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
	clear(stamp)
	n.buildAncestors(stamp)
	n.buildGlossIndex()
	n.lcsMemo.init()
	return n, nil
}

// buildEdges resolves every AddEdge call to dense ids and fills each
// concept's edge list in call order — the edge on the from side, its
// inverse on the to side — keeping the first occurrence of each (target,
// relation) pair. edgesD and the ConceptID view edges share that order.
// stamp must be zero and len(n.concepts) long.
func (n *Network) buildEdges(rels []edgeCall, stamp []int32) error {
	N := len(n.concepts)
	ends := make([]DenseID, 2*len(rels))
	first := make([]int32, N+1) // first[d]: start of d's list in flat
	for i, r := range rels {
		from, ok := n.index.dense[r.from]
		if !ok {
			return fmt.Errorf("semnet: edge from unknown concept %q", r.from)
		}
		to, ok := n.index.dense[r.to]
		if !ok {
			return fmt.Errorf("semnet: edge %q -> unknown concept %q", r.from, r.to)
		}
		ends[2*i], ends[2*i+1] = from, to
		first[from+1]++
		first[to+1]++
	}
	for d := 0; d < N; d++ {
		first[d+1] += first[d]
	}
	flat := make([]DenseEdge, 2*len(rels))
	next := slices.Clone(first[:N])
	for i, r := range rels {
		from, to := ends[2*i], ends[2*i+1]
		flat[next[from]] = DenseEdge{To: to, Rel: r.rel}
		next[from]++
		flat[next[to]] = DenseEdge{To: from, Rel: r.rel.Inverse()}
		next[to]++
	}
	// Deduplicate in place: while concept d's list is compacted, seen[t]
	// holds one bit per relation kind already kept toward t when stamp[t]
	// marks d. Kinds beyond the bits, which only Builder callers can
	// make, are looked up among the kept edges.
	seen := make([]uint8, N)
	kept := 0
	n.edgesD = make([][]DenseEdge, N)
	for d := 0; d < N; d++ {
		mark := int32(d + 1)
		begin := kept
		for _, e := range flat[first[d]:first[d+1]] {
			if stamp[e.To] != mark {
				stamp[e.To], seen[e.To] = mark, 0
			}
			if e.Rel < 8 {
				bit := uint8(1) << e.Rel
				if seen[e.To]&bit != 0 {
					continue
				}
				seen[e.To] |= bit
			} else if slices.Contains(flat[begin:kept], e) {
				continue
			}
			flat[kept] = e
			kept++
		}
		if kept > begin {
			n.edgesD[d] = flat[begin:kept:kept]
		}
	}
	strs := make([]Edge, kept)
	n.edges = make([][]Edge, N)
	at := 0
	for d, es := range n.edgesD {
		if len(es) == 0 {
			continue
		}
		list := strs[at : at+len(es) : at+len(es)]
		for j, e := range es {
			list[j] = Edge{To: n.order[e.To], Rel: e.Rel}
		}
		n.edges[d] = list
		at += len(es)
	}
	return nil
}

// buildLabelTable freezes the label universe: every distinct lemma, sorted
// lexicographically so dense label order preserves string order, its
// frequency-ordered senses (dense and ConceptID), and the primary-label
// dimension of each concept. Senses of each lemma are ordered by
// decreasing concept frequency, ties in insertion order, mirroring
// WordNet's frequency-ordered sense lists: Senses(lemma)[0] is the
// dominant sense, which baselines and tie-breaks fall back to.
func (n *Network) buildLabelTable(lemmas []string) {
	// Number distinct lemmas in first-seen order, then renumber them by
	// rank; label[i] is the label id of lemma occurrence i.
	ids := make(map[string]int32, len(lemmas))
	label := make([]int32, len(lemmas))
	var names []string
	for i, l := range lemmas {
		t, ok := ids[l]
		if !ok {
			t = int32(len(names))
			ids[l] = t
			names = append(names, l)
		}
		label[i] = t
	}
	n.labels = slices.Clone(names)
	slices.Sort(n.labels)
	rank := make([]int32, len(names))
	for i, l := range n.labels {
		rank[ids[l]] = int32(i)
		ids[l] = int32(i)
	}
	n.labelID = ids
	// Bucket (label, concept) pairs by label, keeping insertion order: a
	// concept listing a lemma twice is its sense twice, as before.
	first := make([]int32, len(n.labels)+1)
	for i := range label {
		label[i] = rank[label[i]]
		first[label[i]+1]++
	}
	for l := range n.labels {
		first[l+1] += first[l]
	}
	senses := make([]DenseID, len(lemmas))
	next := slices.Clone(first[:len(n.labels)])
	n.labelOfD = make([]int32, len(n.concepts))
	at := 0
	for d := range n.concepts {
		n.labelOfD[d] = label[at]
		for range n.concepts[d].Lemmas {
			l := label[at]
			senses[next[l]] = DenseID(d)
			next[l]++
			at++
		}
	}
	byFreq := func(a, b DenseID) int {
		switch fa, fb := n.concepts[a].Freq, n.concepts[b].Freq; {
		case fa > fb:
			return -1
		case fb > fa:
			return 1
		}
		return 0
	}
	senseIDs := make([]ConceptID, len(senses))
	n.sensesL = make([][]DenseID, len(n.labels))
	n.sensesS = make([][]ConceptID, len(n.labels))
	for l := range n.labels {
		lo, hi := first[l], first[l+1]
		ds := senses[lo:hi:hi]
		if len(ds) > 1 {
			// The same stable merge sort sort.SliceStable runs, so even
			// frequencies that do not order (NaN) land where they did.
			slices.SortStableFunc(ds, byFreq)
		}
		for j, d := range ds {
			senseIDs[int(lo)+j] = n.order[d]
		}
		n.sensesL[l] = ds
		n.sensesS[l] = senseIDs[lo:hi:hi]
		n.maxPolysemy = max(n.maxPolysemy, len(ds))
	}
}

// buildGlossIndex interns the gloss vocabulary and stores every concept's
// expanded gloss — its own gloss tokens followed by those of its direct
// neighbors in edge order, the "extended" gloss of the Banerjee-Pedersen
// overlap — as (token id, position) occurrences sorted by token id, then
// position. Each distinct gloss word is stemmed once; the interning maps
// live only for the build. All occurrence lists share one backing array.
func (n *Network) buildGlossIndex() {
	N := len(n.concepts)
	byWord := make(map[string]int32, N) // gloss word -> token id of its stem
	byStem := make(map[string]int32, N) // stem -> token id
	var own []int32                     // every concept's own tokens, concatenated
	ownEnd := make([]int, N)            // own[ownEnd[d-1]:ownEnd[d]] belongs to d
	var words []string
	for d := range n.concepts {
		words = appendGlossWords(words[:0], n.concepts[d].Gloss)
		for _, w := range words {
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
	// Sort each expanded gloss as packed keys, token id above position:
	// both are non-negative int32, so key order is (token, position) order.
	flat := make([]GlossOcc, total)
	n.glossOccD = make([][]GlossOcc, N)
	var keys []uint64
	at := 0
	for d := 0; d < N; d++ {
		keys = keys[:0]
		for _, t := range ownOf(DenseID(d)) {
			keys = append(keys, uint64(t)<<32|uint64(len(keys)))
		}
		for _, e := range n.edgesD[d] {
			for _, t := range ownOf(e.To) {
				keys = append(keys, uint64(t)<<32|uint64(len(keys)))
			}
		}
		slices.Sort(keys)
		occ := flat[at : at+len(keys) : at+len(keys)]
		for i, k := range keys {
			occ[i] = GlossOcc{Tok: int32(k >> 32), Pos: int32(uint32(k))}
		}
		n.glossOccD[d] = occ
		at += len(keys)
	}
}

// buildAncestors stores each concept and all its transitive hypernyms in
// BFS visit order (dedup on first visit), matching the walk LCS
// historically did, plus an ascending copy; all lists share two backing
// arrays. stamp must be zero and len(n.concepts) long.
func (n *Network) buildAncestors(stamp []int32) {
	N := len(n.concepts)
	n.ancListD = make([][]int32, N)
	n.ancSortedD = make([][]int32, N)
	var all []int32 // every list, concatenated; each list is its own BFS queue
	ends := make([]int, N)
	for d := 0; d < N; d++ {
		mark := int32(d + 1)
		head := len(all)
		all = append(all, int32(d))
		stamp[d] = mark
		for ; head < len(all); head++ {
			for _, e := range n.edgesD[all[head]] {
				if e.Rel == Hypernym && stamp[e.To] != mark {
					stamp[e.To] = mark
					all = append(all, e.To)
				}
			}
		}
		ends[d] = len(all)
	}
	sorted := slices.Clone(all)
	start := 0
	for d, end := range ends {
		n.ancListD[d] = all[start:end:end]
		s := sorted[start:end:end]
		slices.Sort(s)
		n.ancSortedD[d] = s
		start = end
	}
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
	N := len(n.concepts)
	n.depthD = make([]int32, N)
	indeg := make([]int32, N) // number of hypernyms
	for d := 0; d < N; d++ {
		for _, e := range n.edgesD[d] {
			if e.Rel == Hypernym {
				indeg[d]++
			}
		}
	}
	queue := make([]int32, 0, N)
	for d := 0; d < N; d++ {
		if indeg[d] == 0 {
			n.depthD[d] = 1
			queue = append(queue, int32(d))
		}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
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
	if processed := len(queue); processed != N {
		return fmt.Errorf("semnet: hypernym cycle detected (%d of %d concepts reachable from roots)",
			processed, N)
	}
	return nil
}

// computeCumFreq propagates concept frequencies up the hypernym hierarchy:
// cumFreq(c) = Freq(c) + sum of Freq over all hyponym descendants, so that
// p(c) is monotone non-decreasing toward the roots as Resnik/Lin require.
// stamp must be zero and len(n.concepts) long.
func (n *Network) computeCumFreq(stamp []int32) {
	// A descendant reachable through multiple parents must still be counted
	// once per distinct path-free semantics, so cumFreq is computed per
	// concept from its full descendant set instead of summing child
	// cumFreqs (which would double-count under multiple inheritance).
	// Descendants are accumulated in BFS visit order, which is fixed by the
	// frozen edge set, so the float sum is deterministic. Marking a
	// concept when it is queued rather than when it is dequeued visits the
	// same concepts in the same order.
	N := len(n.concepts)
	n.cumFreqD = make([]float64, N)
	var queue []int32
	for d := 0; d < N; d++ {
		mark := int32(d + 1)
		queue = append(queue[:0], int32(d))
		stamp[d] = mark
		var sum float64
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			sum += n.concepts[cur].Freq
			for _, e := range n.edgesD[cur] {
				if e.Rel == Hyponym && stamp[e.To] != mark {
					stamp[e.To] = mark
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
// assumes of its preprocessed glosses. Build produces the same tokens
// through its interning maps (buildGlossIndex).
func tokenizeGloss(gloss string) []string {
	words := appendGlossWords([]string{}, gloss)
	for i, w := range words {
		words[i] = lingproc.Stem(w)
	}
	return words
}

// appendGlossWords appends the lower-cased content words of a gloss,
// unstemmed, to dst: maximal runs of ASCII letters and digits, without
// one-letter words and stop words.
//
// A lower-case ASCII gloss is split and filtered in one byte pass, its
// words substrings of it. At the first upper-case or non-ASCII byte the
// gloss is lowered whole with strings.ToLower and split again: ToLower can
// turn a non-ASCII letter into an ASCII one (U+212A KELVIN SIGN lowers to
// 'k', U+0130 to 'i' and a combining dot), and no byte of a multi-byte or
// invalid sequence is an ASCII letter or digit, so splitting the lowered
// bytes gives exactly the fields strings.FieldsFunc gives over its runes.
func appendGlossWords(dst []string, gloss string) []string {
	base := len(dst)
	s, lowered := gloss, false
	start := 0
	for i := 0; i <= len(s); i++ {
		c := byte(' ') // a separator ends the last word
		if i < len(s) {
			c = s[i]
		}
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			continue
		case !lowered && (c >= utf8.RuneSelf || 'A' <= c && c <= 'Z'):
			s, lowered = strings.ToLower(gloss), true
			dst = dst[:base]
			i, start = -1, 0
			continue
		}
		if w := s[start:i]; len(w) > 1 && !isGlossStop(w) {
			dst = append(dst, w)
		}
		start = i + 1
	}
	return dst
}

func isGlossStop(w string) bool {
	switch w {
	case "a", "an", "the", "of", "or", "and", "to", "in", "on", "for", "with", "by", "as", "at",
		"is", "are", "was", "were", "be", "that", "this", "it", "its", "from", "who", "which":
		return true
	}
	return false
}

// SortedLemmaIndex renders the lemma -> sense-count mapping sorted by lemma,
// a debugging aid used by cmd tools.
func (n *Network) SortedLemmaIndex() []string {
	out := make([]string, len(n.labels))
	for l, lemma := range n.labels {
		out[l] = fmt.Sprintf("%s (%d senses)", lemma, len(n.sensesL[l]))
	}
	sort.Strings(out)
	return out
}
