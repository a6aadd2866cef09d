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
// intra-document node workers hit the same per-word similarity and
// concept-sphere-vector memos, so a corpus with repeated vocabulary pays
// for each per-word maximum of Definition 8 and each semantic-network
// sphere walk once, not once per document.
//
// The word memo keys on a dense int32 sense id and label id packed into
// one integer (see simmeasure.Measure). The concept-vector memo is one
// vecTable per radius, indexed by dense concept id: a warm read is one
// index and one atomic load — no lock, no hashing, no allocation.
//
// Hit and miss counts are tallied by each run in its pooled scratch and
// added to the counters once, when the run returns (flush), so a warm read
// writes no shared memory.
//
// Invariants: the semantic network is immutable after Build, so every
// cached value is a pure function of its key and never invalidates.
// Cached sphere.Vector values are handed out shared — callers must treat
// them as read-only (all in-tree consumers only read them). Duplicated
// computation when two workers miss the same key concurrently is harmless
// because both compute the identical value.
type Cache struct {
	net *semnet.Network
	sim *simmeasure.Measure

	tables sync.Map // radius (int) -> *vecTable, created on first use

	// scratch pools the dense BFS/vector buffers used to fill vector-cache
	// misses, so a miss costs one sphere walk plus one Clone, not a fresh
	// set of network-sized arrays.
	scratch sync.Pool // *sphere.ConceptScratch

	simHits, simMisses atomic.Uint64
	vecHits, vecMisses atomic.Uint64
}

// NewCache returns an empty cache over net with the given similarity
// weights (normalized as by simmeasure.New).
func NewCache(net *semnet.Network, w simmeasure.Weights) *Cache {
	c := &Cache{
		net: net,
		sim: simmeasure.New(net, w),
	}
	c.scratch.New = func() any { return new(sphere.ConceptScratch) }
	return c
}

// Network returns the semantic network the cache memoizes over.
func (c *Cache) Network() *semnet.Network { return c.net }

// Measure returns the shared similarity measure, which holds the word
// memo.
func (c *Cache) Measure() *simmeasure.Measure { return c.sim }

// vecTable is the concept-vector memo of one radius. Single-sense vectors
// sit in one slot per dense concept id; a slot is stored once and only
// read after. Compound-pair vectors (Eq. 12) sit in an immutable row per
// lower dense id of the canonical pair, which a fill replaces
// copy-on-write under mu, so a warm pair read is one atomic load and a
// scan of a few entries.
//
// A miss computes its vector outside any lock and publishes it with one
// store; workers racing on one fill store equal vectors, because the
// network is immutable.
type vecTable struct {
	c     *Cache
	d     int
	vecs  []atomic.Pointer[normedVector]
	pairs []atomic.Pointer[[]pairVector]
	mu    sync.Mutex // serializes pair-row replacement
}

// pairVector is one entry of a pair row: the pair's higher dense id and
// its combined vector.
type pairVector struct {
	q semnet.DenseID
	v normedVector
}

// table returns the concept-vector memo of radius d, creating it the first
// time the radius is used.
func (c *Cache) table(d int) *vecTable {
	if t, ok := c.tables.Load(d); ok {
		return t.(*vecTable)
	}
	n := c.net.Len()
	t, _ := c.tables.LoadOrStore(d, &vecTable{
		c:     c,
		d:     d,
		vecs:  make([]atomic.Pointer[normedVector], n),
		pairs: make([]atomic.Pointer[[]pairVector], n),
	})
	return t.(*vecTable)
}

// concept returns the vector V_d(s) of the sense with dense id id, and
// whether the memo held it.
func (t *vecTable) concept(id semnet.DenseID) (normedVector, bool) {
	slot := &t.vecs[id]
	if v := slot.Load(); v != nil {
		return *v, true
	}
	s := t.c.scratch.Get().(*sphere.ConceptScratch)
	v := normed(sphere.ConceptVectorInto(t.c.net, id, t.d, s).Clone())
	t.c.scratch.Put(s)
	slot.Store(&v)
	return v, false
}

// pair returns the combined vector V_d(s_p, s_q), and whether the memo
// held it. The union underlying the vector is symmetric in p and q, so
// the pair is canonicalized to dense-ascending order for both the row and
// the computation: its weights fold in one order whichever way it is asked.
func (t *vecTable) pair(p, q semnet.DenseID) (normedVector, bool) {
	if q < p {
		p, q = q, p
	}
	row := &t.pairs[p]
	if v, ok := findPair(row.Load(), q); ok {
		return v, true
	}
	s := t.c.scratch.Get().(*sphere.ConceptScratch)
	v := normed(sphere.CombinedConceptVectorInto(t.c.net, p, q, t.d, s).Clone())
	t.c.scratch.Put(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	old := row.Load()
	if _, ok := findPair(old, q); ok {
		return v, false // a racing fill published the pair first
	}
	var next []pairVector
	if old != nil {
		next = make([]pairVector, len(*old), len(*old)+1)
		copy(next, *old)
	}
	next = append(next, pairVector{q: q, v: v})
	row.Store(&next)
	return v, false
}

// findPair returns the vector of the pair's higher id q in a row.
func findPair(row *[]pairVector, q semnet.DenseID) (normedVector, bool) {
	if row != nil {
		for _, e := range *row {
			if e.q == q {
				return e.v, true
			}
		}
	}
	return normedVector{}, false
}

// ConceptVectorDense returns the memoized semantic-network context vector
// V_d(s) of the in-range sense id (Definition 10). The returned vector is
// shared: read-only.
func (c *Cache) ConceptVectorDense(id semnet.DenseID, d int) sphere.Vector {
	v, hit := c.table(d).concept(id)
	c.countVector(hit)
	return v.Vector
}

// countVector counts one public vector lookup, which is its own run.
func (c *Cache) countVector(hit bool) {
	if hit {
		c.vecHits.Add(1)
	} else {
		c.vecMisses.Add(1)
	}
}

// cacheTally counts one run's reads of the shared memos. The run keeps it
// in its pooled scratch and adds it to the cache's counters once (flush)
// before the scratch goes back to the pool.
type cacheTally struct {
	simHits, simMisses uint64
	vecHits, vecMisses uint64
}

func (t *cacheTally) sim(hit bool) {
	if hit {
		t.simHits++
	} else {
		t.simMisses++
	}
}

func (t *cacheTally) vector(hit bool) {
	if hit {
		t.vecHits++
	} else {
		t.vecMisses++
	}
}

// flush adds a run's tally to the counters and zeroes it.
func (c *Cache) flush(t *cacheTally) {
	if *t == (cacheTally{}) {
		return
	}
	c.simHits.Add(t.simHits)
	c.simMisses.Add(t.simMisses)
	c.vecHits.Add(t.vecHits)
	c.vecMisses.Add(t.vecMisses)
	*t = cacheTally{}
}

// CacheStats is a point-in-time snapshot of the shared cache counters, for
// observability and effectiveness tests. SimHits and SimMisses count
// shared word-memo reads (Measure.WordSimDense), not sense-pair probes: on
// the document path one per (candidate sense, context lemma) per document,
// since the document's word matrix answers repeats, or one per read for a
// document above the matrix cap; on the per-node path one per sense of
// the target's readings and context token, so each sense of a compound
// label's pairs is read once per token, not once per pair. VectorHits and
// VectorMisses count concept-vector reads, single senses and compound
// pairs alike.
//
// Each run counts its reads locally and adds them when it returns (per
// node worker, for a parallel run), so the counts are exact once the runs
// that made the reads have returned, and a snapshot taken mid-run omits
// that run's reads.
type CacheStats struct {
	SimHits, SimMisses       uint64
	VectorHits, VectorMisses uint64
}

// Stats reports hit/miss counts since construction.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		SimHits:      c.simHits.Load(),
		SimMisses:    c.simMisses.Load(),
		VectorHits:   c.vecHits.Load(),
		VectorMisses: c.vecMisses.Load(),
	}
}
