// Package simmeasure implements the three families of semantic similarity
// measures used by XSDF's concept-based disambiguation (Definition 9):
//
//   - Sim_Edge — the edge-based measure of Wu & Palmer [59];
//   - Sim_Node — the node-based information-content measure of Lin [27],
//     which requires the weighted network S̄N (concept frequencies);
//   - Sim_Gloss — a normalized extension of the extended gloss overlap of
//     Banerjee & Pedersen [6].
//
// The combined measure is their weighted sum with w_Edge+w_Node+w_Gloss = 1.
package simmeasure

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/semnet"
)

// Weights holds the non-negative combination weights of Definition 9.
type Weights struct {
	Edge  float64
	Node  float64
	Gloss float64
}

// EqualWeights returns the configuration used in the paper's experiments
// (w_Edge = w_Node = w_Gloss = 1/3; footnote 12).
func EqualWeights() Weights { return Weights{Edge: 1.0 / 3, Node: 1.0 / 3, Gloss: 1.0 / 3} }

// EdgeOnly, NodeOnly, and GlossOnly are single-measure configurations used
// by the ablation benchmarks.
func EdgeOnly() Weights  { return Weights{Edge: 1} }
func NodeOnly() Weights  { return Weights{Node: 1} }
func GlossOnly() Weights { return Weights{Gloss: 1} }

// Validate checks the Definition 9 constraints: weights non-negative and
// summing to 1 (within floating-point tolerance).
func (w Weights) Validate() error {
	if w.Edge < 0 || w.Node < 0 || w.Gloss < 0 {
		return fmt.Errorf("simmeasure: negative weight %+v", w)
	}
	if s := w.Edge + w.Node + w.Gloss; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("simmeasure: weights sum to %g, want 1", s)
	}
	return nil
}

// Normalize rescales the weights to sum to 1, leaving all-zero weights as
// the equal configuration.
func (w Weights) Normalize() Weights {
	s := w.Edge + w.Node + w.Gloss
	if s <= 0 {
		return EqualWeights()
	}
	return Weights{Edge: w.Edge / s, Node: w.Node / s, Gloss: w.Gloss / s}
}

// simShardCount is the number of shards of the word memo.
// Sharding keeps many disambiguation goroutines from serializing on one
// mutex; 64 shards are plenty for the worker counts a single host runs.
const simShardCount = 64

// simShard is one cache shard, organized for a read-dominated workload:
// lookups on the clean map are lock-free (one atomic pointer load, no
// read-modify-write — an RWMutex read lock costs three locked RMW ops per
// lookup, which dominated the warm scoring profile). Writers insert into
// the small mutex-guarded dirty map and periodically merge it into a
// fresh clean map swapped in atomically; the publication ordering of
// Store/Load makes the merged map safely immutable to readers.
type simShard struct {
	clean atomic.Pointer[map[uint64]float64] // read-only; never mutated after Store
	mu    sync.Mutex
	dirty map[uint64]float64 // entries since the last merge
}

// lookup returns the cached value for key, lock-free when the entry has
// been merged into the clean map, under the shard mutex while it still
// sits in dirty.
func (sh *simShard) lookup(key uint64) (float64, bool) {
	if p := sh.clean.Load(); p != nil {
		if v, ok := (*p)[key]; ok {
			return v, true
		}
	}
	sh.mu.Lock()
	v, ok := sh.dirty[key]
	sh.mu.Unlock()
	return v, ok
}

// insert records a computed value and merges dirty into a new clean map
// once dirty outgrows a quarter of clean (capped so entries reach the
// lock-free path promptly even in huge shards). Each entry is copied an
// amortized-constant number of times; values are pure functions of the
// immutable network, so racing inserts of one key write the same value.
func (sh *simShard) insert(key uint64, v float64) {
	sh.mu.Lock()
	sh.dirty[key] = v
	n := 0
	if p := sh.clean.Load(); p != nil {
		n = len(*p)
	}
	if threshold := 1 + n/4; len(sh.dirty) >= threshold || len(sh.dirty) >= 1024 {
		merged := make(map[uint64]float64, n+len(sh.dirty))
		if p := sh.clean.Load(); p != nil {
			for k, val := range *p {
				merged[k] = val
			}
		}
		for k, val := range sh.dirty {
			merged[k] = val
		}
		sh.clean.Store(&merged)
		sh.dirty = make(map[uint64]float64)
	}
	sh.mu.Unlock()
}

// Measure evaluates combined semantic similarity between concepts of one
// network. Sense pairs are computed, not memoized: a pair costs a few
// hundred nanoseconds without allocating (one LCS scan over the
// precomputed ancestor lists, the gloss-overlap kernel over interned
// occurrence lists), and the scoring core reads similarity only through
// Definition 8's per-word maximum. That maximum has the one memo, the
// word memo: WordSimDense(s, lemma), the maximum of Sim over a context
// lemma's senses, keyed by the packed (sense, label id) pair, so a warm
// read is one map probe however many senses the lemma has.
//
// Shard selection is a two-multiply integer mix: a warm lookup allocates
// nothing, hashes no strings, and takes Go's fast uint64 map-access path.
//
// Measure keeps no counters: WordSimDense reports whether the memo
// answered, and callers that count reads tally them locally, so a warm
// read of a merged entry writes no shared memory.
//
// Measure is safe for concurrent use: reads of merged entries are
// lock-free (see simShard), and cached values are pure functions of the
// immutable network, so duplicated computation under contention is
// harmless.
type Measure struct {
	net     *semnet.Network
	weights Weights
	words   [simShardCount]simShard
}

// New returns a Measure over net with the given (normalized) weights.
func New(net *semnet.Network, w Weights) *Measure {
	m := &Measure{
		net:     net,
		weights: w.Normalize(),
	}
	for i := range m.words {
		m.words[i].dirty = make(map[uint64]float64)
	}
	return m
}

// Weights returns the active combination weights.
func (m *Measure) Weights() Weights { return m.weights }

// Network returns the network the measure scores over.
func (m *Measure) Network() *semnet.Network { return m.net }

// Sim is SimDense for callers that hold concept ids as strings (document
// classification, tree edit distance, the examples). Identical ids score
// 1, and an id outside the network scores 0 against any other id.
func (m *Measure) Sim(c1, c2 semnet.ConceptID) float64 {
	if c1 == c2 {
		return 1
	}
	d1, ok1 := m.net.Dense(c1)
	d2, ok2 := m.net.Dense(c2)
	if !ok1 || !ok2 {
		return 0
	}
	return m.SimDense(d1, d2)
}

// SimDense returns the combined similarity Sim(c1, c2, S̄N) in [0, 1] of
// two in-range dense ids (Definition 9). Identical concepts score 1. The
// pair is evaluated in canonical dense-ascending order, because the LCS
// and gloss-overlap tie-breaks depend on argument order, so SimDense is
// symmetric bit for bit. The edge and node terms share one LCS scan, and
// a term whose weight is zero is not computed: it would add an exact
// zero to a sum that is never -0.
func (m *Measure) SimDense(d1, d2 semnet.DenseID) float64 {
	if d1 == d2 {
		return 1
	}
	if d2 < d1 {
		d1, d2 = d2, d1
	}
	var v float64
	if m.weights.Edge != 0 || m.weights.Node != 0 {
		if lcs, ok := m.net.LCSDense(d1, d2); ok {
			v = m.weights.Edge*m.edgeDense(d1, d2, lcs) + m.weights.Node*m.nodeICDense(d1, d2, lcs)
		}
	}
	if m.weights.Gloss != 0 {
		v += m.weights.Gloss * glossDense(m.net, d1, d2)
	}
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return v
}

// SimDirectDense is SimDense under the name perfbench's kernel replay
// times it by.
func (m *Measure) SimDirectDense(d1, d2 semnet.DenseID) float64 { return m.SimDense(d1, d2) }

// WordSimDense returns the similarity of sense s to a word: max(0,
// max_j Sim(s, s_j)) over the senses s_j of the lemma with label id lemma
// (semnet.Network.LemmaDense) — the inner maximum of Definition 8, which
// depends only on (s, lemma) and is memoized per pair. hit reports
// whether the memo answered (false: this call computed and filled the
// entry). s and lemma must be in range.
func (m *Measure) WordSimDense(s semnet.DenseID, lemma int32) (v float64, hit bool) {
	key := semnet.PairKey(s, lemma)
	sh := &m.words[semnet.MixPair(s, lemma)%simShardCount]
	if cached, ok := sh.lookup(key); ok {
		return cached, true
	}
	v = m.WordSimDirectDense(s, lemma)
	sh.insert(key, v)
	return v, false
}

// WordSimDirectDense is WordSimDense without consulting or filling the
// memo — the bypass twin differential tests compare it against.
func (m *Measure) WordSimDirectDense(s semnet.DenseID, lemma int32) float64 {
	best := 0.0
	for _, sj := range m.net.LemmaSensesDense(lemma) {
		if v := m.SimDense(s, sj); v > best {
			best = v
		}
	}
	return best
}

// edgeDense is the Wu-Palmer edge-based measure over dense ids, given
// their LCS:
//
//	Sim_Edge(c1, c2) = 2·depth(LCS) / (depth(c1) + depth(c2))
//
// where depth counts hypernym links from the hierarchy root (roots have
// depth 1). Concepts without a common subsumer score 0.
func (m *Measure) edgeDense(c1, c2, lcs semnet.DenseID) float64 {
	d1, d2 := m.net.DepthDense(c1), m.net.DepthDense(c2)
	if d1+d2 == 0 {
		return 0
	}
	return 2 * float64(m.net.DepthDense(lcs)) / float64(d1+d2)
}

// nodeICDense is Lin's node-based measure over dense ids, given their LCS:
//
//	Sim_Node(c1, c2) = 2·IC(LCS) / (IC(c1) + IC(c2))
//
// using the cumulative-frequency information content of the weighted
// network. Concepts without a common subsumer score 0.
func (m *Measure) nodeICDense(c1, c2, lcs semnet.DenseID) float64 {
	ic1, ic2 := m.net.ICDense(c1), m.net.ICDense(c2)
	if ic1+ic2 <= 0 {
		return 0
	}
	v := 2 * m.net.ICDense(lcs) / (ic1 + ic2)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
