package disambig

import (
	"sync"
	"sync/atomic"

	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
)

// Cache is the shared, concurrency-safe memoization layer of the semantic
// hot path. One Cache is owned by a core.Framework and shared by every
// disambiguator the framework creates — all batch workers and all
// intra-document node workers hit the same similarity (per-word and
// pairwise) and concept-sphere-vector memos, so a corpus with repeated
// vocabulary pays for each Sim(c1, c2) evaluation, each per-word maximum,
// and each semantic-network sphere walk once, not once per document.
//
// Keys are dense int32 concept ids (the network's ConceptIndex) packed
// into integers, and shard selection is a two-multiply mix — a warm lookup
// hashes no strings and allocates nothing.
//
// Invariants: the semantic network is immutable after Build, so every
// cached value is a pure function of its key and never invalidates.
// Cached sphere.Vector values are handed out shared — callers must treat
// them as read-only (all in-tree consumers only read them). Sharded
// read-write locks keep workers from serializing on a single mutex;
// duplicated computation when two workers miss the same key concurrently
// is harmless because both compute the identical value.
type Cache struct {
	net *semnet.Network
	sim *simmeasure.Measure

	vecs  [vecShardCount]vecShard  // single-sense semantic-network vectors
	pairs [vecShardCount]pairShard // compound-label combined vectors (Eq. 12)

	// scratch pools the dense BFS/vector buffers used to fill vector-cache
	// misses, so a miss costs one sphere walk plus one Clone, not a fresh
	// set of network-sized arrays.
	scratch sync.Pool // *sphere.ConceptScratch

	vecHits, vecMisses atomic.Uint64
}

const vecShardCount = 32

// vecKey identifies a single-sense vector: dense concept id + radius.
type vecKey struct {
	c semnet.DenseID
	d int32
}

// pairKey identifies a combined vector: packed canonical dense pair + radius.
type pairKey struct {
	pq uint64
	d  int32
}

type vecShard struct {
	mu sync.RWMutex
	m  map[vecKey]normedVector
}

type pairShard struct {
	mu sync.RWMutex
	m  map[pairKey]normedVector
}

// NewCache returns an empty cache over net with the given similarity
// weights (normalized as by simmeasure.New).
func NewCache(net *semnet.Network, w simmeasure.Weights) *Cache {
	c := &Cache{
		net: net,
		sim: simmeasure.New(net, w),
	}
	c.scratch.New = func() any { return new(sphere.ConceptScratch) }
	for i := range c.vecs {
		c.vecs[i].m = make(map[vecKey]normedVector)
	}
	for i := range c.pairs {
		c.pairs[i].m = make(map[pairKey]normedVector)
	}
	return c
}

// Network returns the semantic network the cache memoizes over.
func (c *Cache) Network() *semnet.Network { return c.net }

// Measure returns the shared pairwise-similarity measure.
func (c *Cache) Measure() *simmeasure.Measure { return c.sim }

// Sim returns the memoized combined similarity of the pair.
func (c *Cache) Sim(a, b semnet.ConceptID) float64 { return c.sim.Sim(a, b) }

// ConceptVector returns the memoized semantic-network context vector
// V_d(s) of a sense (Definition 10); unknown ids yield the empty vector.
// The returned vector is shared: read-only.
func (c *Cache) ConceptVector(id semnet.ConceptID, d int) sphere.Vector {
	dc, ok := c.net.Dense(id)
	if !ok {
		return sphere.Vector{}
	}
	return c.ConceptVectorDense(dc, d)
}

// ConceptVectorDense is ConceptVector keyed by dense id.
func (c *Cache) ConceptVectorDense(id semnet.DenseID, d int) sphere.Vector {
	return c.conceptVector(id, d).Vector
}

// conceptVector is ConceptVectorDense with the vector's squared norm,
// summed once when the entry is filled.
func (c *Cache) conceptVector(id semnet.DenseID, d int) normedVector {
	key := vecKey{c: id, d: int32(d)}
	sh := &c.vecs[semnet.MixPair(id, semnet.DenseID(d))%vecShardCount]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.vecHits.Add(1)
		return v
	}
	c.vecMisses.Add(1)
	s := c.scratch.Get().(*sphere.ConceptScratch)
	v = normed(sphere.ConceptVectorInto(c.net, id, d, s).Clone())
	c.scratch.Put(s)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// PairVector returns the memoized combined concept vector V_d(s_p, s_q) of
// a compound-label candidate pair (Eq. 12); unknown ids yield the empty
// vector. The returned vector is shared: read-only.
func (c *Cache) PairVector(p, q semnet.ConceptID, d int) sphere.Vector {
	dp, okp := c.net.Dense(p)
	dq, okq := c.net.Dense(q)
	if !okp || !okq {
		return sphere.Vector{}
	}
	return c.PairVectorDense(dp, dq, d)
}

// PairVectorDense is PairVector keyed by the canonical dense pair. The
// union underlying the vector is symmetric in p and q, so the pair is
// canonicalized to dense-ascending order for both the key and the
// computation — cached and bypass paths fold weights in one order.
func (c *Cache) PairVectorDense(p, q semnet.DenseID, d int) sphere.Vector {
	return c.pairVector(p, q, d).Vector
}

// pairVector is PairVectorDense with the vector's squared norm, summed
// once when the entry is filled.
func (c *Cache) pairVector(p, q semnet.DenseID, d int) normedVector {
	if q < p {
		p, q = q, p
	}
	key := pairKey{pq: semnet.PairKey(p, q), d: int32(d)}
	sh := &c.pairs[semnet.MixPair(p, q)%vecShardCount]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.vecHits.Add(1)
		return v
	}
	c.vecMisses.Add(1)
	s := c.scratch.Get().(*sphere.ConceptScratch)
	v = normed(sphere.CombinedConceptVectorInto(c.net, p, q, d, s).Clone())
	c.scratch.Put(s)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
	return v
}

// CacheStats is a point-in-time snapshot of the shared cache counters, for
// observability and effectiveness tests. SimHits and SimMisses count
// shared word-memo reads (Measure.WordSimDense), not sense-pair probes: on
// the document path one per (candidate sense, context lemma) per document,
// since the document's word matrix answers repeats, or one per read for a
// document above the matrix cap; on the per-node path one per candidate
// sense and context token. Counters are atomics: exact in serial runs,
// approximate snapshots under concurrency.
type CacheStats struct {
	SimHits, SimMisses       uint64
	VectorHits, VectorMisses uint64
}

// Stats reports hit/miss counts since construction.
func (c *Cache) Stats() CacheStats {
	h, m := c.sim.Stats()
	return CacheStats{
		SimHits:      h,
		SimMisses:    m,
		VectorHits:   c.vecHits.Load(),
		VectorMisses: c.vecMisses.Load(),
	}
}
