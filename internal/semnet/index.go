package semnet

// This file implements the dense integer concept index that backs the
// scoring hot path. Every Network built by Builder (and therefore every
// snapshot the hot-swap layer publishes) carries one ConceptIndex assigned
// at build time: dense ids are positions in the immutable insertion order,
// so they are stable for the lifetime of the Network and never reused
// across snapshot epochs (a reloaded Network gets a fresh index).
//
// The scoring core (sphere vectors, simmeasure, disambig caches) runs
// entirely on these int32 ids; ConceptID strings appear only at the API
// boundary (building the network, reporting assigned senses).

// DenseID is the position of a concept in its Network's insertion order.
// It is only meaningful relative to the Network (epoch) that assigned it.
type DenseID = int32

// DenseEdge is one adjacency entry of the integer-indexed edge lists.
type DenseEdge struct {
	To  DenseID
	Rel Relation
}

// ConceptIndex is the bidirectional ConceptID <-> dense int32 mapping,
// built once per Network. It is immutable after Build and safe for
// concurrent use.
type ConceptIndex struct {
	ids   []ConceptID // dense -> ConceptID, insertion order
	dense map[ConceptID]DenseID
}

// Len returns the number of indexed concepts.
func (ix *ConceptIndex) Len() int { return len(ix.ids) }

// Dense returns the dense id of the concept, or false when the ConceptID is
// not part of the Network this index was built for.
func (ix *ConceptIndex) Dense(id ConceptID) (DenseID, bool) {
	d, ok := ix.dense[id]
	return d, ok
}

// ID returns the ConceptID at the dense position, or false when d is out of
// range for this Network.
func (ix *ConceptIndex) ID(d DenseID) (ConceptID, bool) {
	if d < 0 || int(d) >= len(ix.ids) {
		return "", false
	}
	return ix.ids[d], true
}

// mix64 is the 64-bit finalizer of MurmurHash3: two multiplies and three
// xor-shifts. It is the shard/key mix for every integer-keyed cache in the
// scoring core, replacing the per-lookup fnv/maphash-over-strings the
// string-keyed shards needed.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// PairKey packs two dense ids into one map key. Callers canonicalize the
// order when the relation is symmetric.
func PairKey(a, b DenseID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// MixPair returns a well-distributed hash of the packed pair, for shard
// selection in int-keyed caches.
func MixPair(a, b DenseID) uint64 { return mix64(PairKey(a, b)) }

// Index returns the Network's concept index. The returned value is shared
// and read-only.
func (n *Network) Index() *ConceptIndex { return n.index }

// Dense returns the dense id of a ConceptID, or false when unknown.
func (n *Network) Dense(id ConceptID) (DenseID, bool) { return n.index.Dense(id) }

// ConceptAt returns the ConceptID at a dense position, or false when out of
// range.
func (n *Network) ConceptAt(d DenseID) (ConceptID, bool) { return n.index.ID(d) }

// DepthDense is Depth for an in-range dense id.
func (n *Network) DepthDense(d DenseID) int { return int(n.depthD[d]) }

// ICDense is IC for an in-range dense id (precomputed at build time).
func (n *Network) ICDense(d DenseID) float64 { return n.icD[d] }

// EdgesDense returns the integer-indexed adjacency of d. Read-only.
func (n *Network) EdgesDense(d DenseID) []DenseEdge { return n.edgesD[d] }

// LabelDense returns the label-dimension id of the concept's primary label
// (always a known label: primary labels are lemmas).
func (n *Network) LabelDense(d DenseID) int32 { return n.labelOfD[d] }

// GlossOcc is one token of a concept's expanded gloss: the interned id of
// its stem and its position in the gloss. Tokens with equal ids are the
// same stem, so gloss overlap compares integers, never strings.
type GlossOcc struct {
	Tok int32 // interned stem id, shared across the Network
	Pos int32 // position in the expanded gloss (ExpandedGlossTokens order)
}

// GlossOccurrencesDense returns the expanded gloss of an in-range dense id
// as one occurrence per token, sorted by token id and, within a token, by
// position; positions run over 0..len-1 exactly once. The slice is shared
// and read-only.
func (n *Network) GlossOccurrencesDense(d DenseID) []GlossOcc { return n.glossOccD[d] }

// LemmaDense returns the label id of the word or expression (matched
// case-insensitively, as Senses matches it), or -1 when it names no
// concept. Every known lemma has at least one sense.
func (n *Network) LemmaDense(lemma string) int32 {
	if l, ok := n.labelID[lower(lemma)]; ok {
		return l
	}
	return -1
}

// LemmaSensesDense returns the dense senses of an in-range label id in the
// same frequency order as Senses. The slice is shared and read-only.
func (n *Network) LemmaSensesDense(l int32) []DenseID { return n.sensesL[l] }

// SensesDense returns the dense ids of the lemma's senses in the same
// frequency order as Senses. The slice is shared and read-only; nil when
// the lemma is unknown.
func (n *Network) SensesDense(lemma string) []DenseID {
	if l := n.LemmaDense(lemma); l >= 0 {
		return n.sensesL[l]
	}
	return nil
}

// LCSDense is LCS over dense ids: the deepest shared ancestor in the
// hypernym hierarchy, memoized per ordered pair under sharded locks with a
// two-multiply integer mix (no hasher allocation, no string conversion).
func (n *Network) LCSDense(a, b DenseID) (DenseID, bool) {
	key := PairKey(a, b)
	sh := &n.lcsMemo.shards[mix64(key)&(lcsShardCount-1)]
	sh.mu.RLock()
	e, hit := sh.m[key]
	sh.mu.RUnlock()
	if hit {
		return e.d, e.ok
	}
	d, ok := n.lcsComputeDense(a, b)
	sh.mu.Lock()
	sh.m[key] = lcsEntry{d: d, ok: ok}
	sh.mu.Unlock()
	return d, ok
}

// lcsComputeDense scans b's ancestors in BFS visit order — the same walk
// (tie-breaks included) the string-keyed implementation did — keeping the
// deepest one that is also an ancestor of a. Membership in a's ancestor set
// is a binary search over the sorted dense ancestor array.
func (n *Network) lcsComputeDense(a, b DenseID) (DenseID, bool) {
	anc := n.ancSortedD[a]
	best := DenseID(-1)
	bestDepth := int32(-1)
	for _, cur := range n.ancListD[b] {
		if !containsSorted(anc, cur) {
			continue
		}
		if d := n.depthD[cur]; d > bestDepth {
			best, bestDepth = cur, d
		}
	}
	if bestDepth < 0 {
		return -1, false
	}
	return best, true
}

// containsSorted reports whether x occurs in the ascending slice s.
// Ancestor lists are taxonomy-depth sized, so a branch-light binary search
// beats both map lookups and linear scans.
func containsSorted(s []int32, x int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Vocab implementation (sphere.Vocab): the network's label universe is its
// lemma set, sorted lexicographically, so dense label order coincides with
// string order and merge-join similarity visits dimensions in the same
// order the string-keyed maps were folded in.

// LabelID returns the dense dimension of a label, or false when the label
// is not a lemma of this network. Matching is exact (the scoring core sees
// labels already normalized by lingproc).
func (n *Network) LabelID(label string) (int32, bool) {
	d, ok := n.labelID[label]
	return d, ok
}

// LabelName returns the label at a dense dimension, or "" when out of
// range (vector dimensions above NumLabels are per-vector unknowns with no
// global name).
func (n *Network) LabelName(dim int32) string {
	if dim < 0 || int(dim) >= len(n.labels) {
		return ""
	}
	return n.labels[dim]
}

// NumLabels returns the size of the label universe; vector dimensions >=
// NumLabels denote labels unknown to the network.
func (n *Network) NumLabels() int { return len(n.labels) }
