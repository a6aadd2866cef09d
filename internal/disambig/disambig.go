// Package disambig implements XSDF's semantic disambiguation module (§3.5):
// concept-based scoring (Definition 8 and its compound-label variant,
// Eq. 10), context-based scoring (Definition 10 and Eq. 12), and the
// user-weighted combination of both (Eq. 13).
package disambig

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// Method selects the disambiguation process.
type Method uint8

const (
	// ConceptBased compares target-node senses with context-node senses via
	// semantic similarity measures (Definition 8).
	ConceptBased Method = iota
	// ContextBased compares the target's XML sphere context vector with the
	// semantic-network sphere context vector of each candidate sense
	// (Definition 10).
	ContextBased
	// Combined mixes both scores with user weights (Eq. 13).
	Combined
)

// String names the method.
func (m Method) String() string {
	switch m {
	case ConceptBased:
		return "concept-based"
	case ContextBased:
		return "context-based"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Options collects the user-tunable parameters of the disambiguation module
// (answering Motivation 4: nothing is hard-wired).
type Options struct {
	// Radius is the sphere neighborhood radius d (context size).
	Radius int
	// Method selects concept-based, context-based, or combined scoring.
	Method Method
	// SimWeights combines the edge/node/gloss similarity measures
	// (Definition 9). Used by concept-based and combined scoring.
	SimWeights simmeasure.Weights
	// ConceptWeight and ContextWeight are w_Concept and w_Context of
	// Eq. 13 (combined method only); they are normalized to sum to 1.
	ConceptWeight float64
	ContextWeight float64
	// VectorSim compares context vectors (context-based scoring). Nil means
	// cosine, the paper's default.
	VectorSim sphere.VectorSim
	// FollowLinks makes sphere construction traverse ID/IDREF hyperlink
	// edges (xmltree.ResolveLinks), treating the document as a graph (§1).
	FollowLinks bool
	// NodeHook, when non-nil, is invoked before each target node is
	// disambiguated in ApplyContext. It exists as a fault-injection seam
	// for tests (simulating slow or panicking nodes); production callers
	// leave it nil. With Workers > 1 the hook is called concurrently from
	// the node workers and must be safe for concurrent use.
	NodeHook func(*xmltree.Node)
	// Workers is the intra-document parallelism of ApplyContext: the
	// number of goroutines target nodes are fanned across. 0 and 1 keep
	// the historical serial loop; negative selects GOMAXPROCS (normalized
	// once, in NewShared, so every layer sees the same convention).
	// Parallel workers share the disambiguator's caches
	// (concurrency-safe) and write only to their own target nodes, so
	// sense assignments are identical to a serial run.
	Workers int

	// Degrade configures the graceful-degradation ladder: under deadline
	// pressure or past the node-count watermarks, scoring steps down
	// configured method → concept-only → first-sense instead of failing.
	// The zero value keeps the historical all-or-nothing semantics.
	Degrade Degradation
}

// DefaultOptions mirrors the paper's common configuration: radius 1,
// concept-based process, equal similarity-measure weights.
func DefaultOptions() Options {
	return Options{
		Radius:        1,
		Method:        ConceptBased,
		SimWeights:    simmeasure.EqualWeights(),
		ConceptWeight: 0.5,
		ContextWeight: 0.5,
	}
}

func (o Options) vectorSim() sphere.VectorSim {
	if o.VectorSim == nil {
		return sphere.Cosine
	}
	return o.VectorSim
}

// Sense is a disambiguation outcome for one node: one concept for simple
// labels, two for compound labels whose tokens were sensed separately.
type Sense struct {
	Concepts []semnet.ConceptID
	Score    float64
}

// ID renders the sense as a stable identifier string ("movie.n.01" or
// "first.n.01+name.n.01" for compounds).
func (s Sense) ID() string {
	parts := make([]string, len(s.Concepts))
	for i, c := range s.Concepts {
		parts[i] = string(c)
	}
	return strings.Join(parts, "+")
}

// Disambiguator runs sense disambiguation for nodes of one document tree
// against one semantic network. Similarity scores and semantic-network
// sphere vectors are memoized in a Cache, which may be shared across
// documents; ApplyReport additionally resolves the document into a pooled
// table for the length of the run, so one Disambiguator scores a whole
// document at the cost of each underlying computation once.
//
// A Disambiguator is safe for concurrent use: all memos are concurrency-
// safe, the semantic network is immutable, and per-run state travels down
// the call chain, never through the Disambiguator. The only mutation it
// performs is writing Sense/SenseScore into the target nodes handed to
// Apply/ApplyContext; callers must not hand the same node to two
// concurrent Apply calls.
type Disambiguator struct {
	net   *semnet.Network
	opts  Options
	cache *Cache
	vecs  *vecTable // the cache's concept-vector memo at opts.Radius

	// bypassCache, set only by differential tests, recomputes every
	// similarity, vector, and context from scratch on each call and
	// scores every node through the per-node build; golden tests assert
	// the cached and bypass paths agree bit for bit.
	bypassCache bool
}

// New returns a Disambiguator over net with the given options, backed by a
// private cache.
func New(net *semnet.Network, opts Options) *Disambiguator {
	return NewShared(NewCache(net, opts.SimWeights), opts)
}

// NewShared returns a Disambiguator backed by an existing (possibly
// shared) cache. The cache's similarity weights take effect; callers are
// expected to construct the cache from the same weights as opts.SimWeights
// (core.Framework does).
func NewShared(cache *Cache, opts Options) *Disambiguator {
	if opts.Radius < 1 {
		opts.Radius = 1
	}
	if opts.Workers < 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Disambiguator{
		net:   cache.Network(),
		opts:  opts,
		cache: cache,
		vecs:  cache.table(opts.Radius),
	}
}

// Options returns the active configuration.
func (d *Disambiguator) Options() Options { return d.opts }

// Cache returns the (possibly shared) memoization layer backing this
// disambiguator.
func (d *Disambiguator) Cache() *Cache { return d.cache }

// contextNode is one pre-resolved member of the target's sphere context:
// its vector weight and the [lemmaStart, lemmaEnd) range of its per-token
// lemma ids within preparedContext.lemmas.
type contextNode struct {
	weight     float64 // w_{V_d(x)}(x_i.ℓ)
	lemmaStart int32
	lemmaEnd   int32
}

// preparedContext is the per-node build's sphere context of one target
// node: the Definition 6–7 context vector, one label id per member token
// (-1 when the token names no concept), and the sphere size. tally counts
// the memo reads of the run the context is scored in.
type preparedContext struct {
	vec    normedVector
	ctx    []contextNode
	lemmas []int32
	size   int
	tally  *cacheTally
}

// normedVector is a context vector with its squared norm, summed once in
// ascending dimension order (sphere.SquaredNorm), so a cosine is one dot
// product over the shared dimensions.
type normedVector struct {
	sphere.Vector
	norm2 float64
}

func normed(v sphere.Vector) normedVector {
	return normedVector{Vector: v, norm2: sphere.SquaredNorm(v)}
}

// ctxScratch bundles the reusable buffers of both scoring paths: the
// pointer BFS, vector fold, per-member dimensions and preparedContext of
// the per-node build; the integer BFS, local-dimension accumulator,
// docContext and per-candidate sums of the document path. Each scoring
// goroutine draws one from ctxScratchPool, so the warm steady state
// allocates nothing for context construction or scoring, and tallies its
// memo reads in it until releaseScratch.
type ctxScratch struct {
	sph        sphere.Scratch
	vec        sphere.VecScratch
	memberDims []int32
	lemmas     []int32
	pc         preparedContext
	scores     []float64 // per-candidate scores, in candidate order

	pos       sphere.PosScratch
	acc       []float64 // context weight by local dimension; all zero between targets
	dc        docContext
	sims      []float64 // per-sense word maxima against one context member
	ctxScores []float64 // the context leg's scores under the combined method

	tally cacheTally
}

var ctxScratchPool = sync.Pool{New: func() any { return new(ctxScratch) }}

// releaseScratch adds the scratch's tally to the cache's counters and
// returns the scratch to the pool.
func (d *Disambiguator) releaseScratch(s *ctxScratch) {
	d.cache.flush(&s.tally)
	ctxScratchPool.Put(s)
}

// buildContextInto is the per-node context build — the single-node APIs'
// path and the bypass oracle. It runs the sphere BFS once and derives the
// membership, the context vector, and the per-member token lemma ids from
// that single walk, reusing every buffer in s. The center node is excluded
// from the scoring context (its self-similarity is a constant offset for
// every candidate, cf. Definition 8) but participates in the vector per
// the Figure 7 convention. The result aliases s.
func (d *Disambiguator) buildContextInto(x *xmltree.Node, s *ctxScratch) *preparedContext {
	members := sphere.SphereInto(x, d.opts.Radius, d.opts.FollowLinks, &s.sph)
	if cap(s.memberDims) < len(members) {
		s.memberDims = make([]int32, len(members))
	}
	md := s.memberDims[:len(members)]
	pc := &s.pc
	pc.vec = normed(sphere.VectorFromMembersInto(members, d.opts.Radius, d.net, &s.vec, md))
	pc.size = len(members)
	pc.ctx = pc.ctx[:0]
	pc.tally = &s.tally
	s.lemmas = s.lemmas[:0]
	for i, m := range members {
		if m.Node == x {
			continue
		}
		var w float64
		if md[i] >= 0 {
			w = pc.vec.WeightOf(md[i])
		}
		start := int32(len(s.lemmas))
		s.lemmas = d.appendLemmas(s.lemmas, m.Node)
		pc.ctx = append(pc.ctx, contextNode{weight: w, lemmaStart: start, lemmaEnd: int32(len(s.lemmas))})
	}
	pc.lemmas = s.lemmas
	return pc
}

// lemmaDense resolves a token to its label id, or -1 when it names no
// concept or an injected lookup fault fires: the fault-injection seam
// makes a failed lookup behave like a failed semantic-network backend
// without touching the network.
func (d *Disambiguator) lemmaDense(tok string) int32 {
	if faultinject.DropLookup() {
		return -1
	}
	return d.net.LemmaDense(tok)
}

// appendLemmas appends the label id of each of x's tokens — of its label
// when pre-processing left no tokens — to dst.
func (d *Disambiguator) appendLemmas(dst []int32, x *xmltree.Node) []int32 {
	if len(x.Tokens) == 0 {
		return append(dst, d.lemmaDense(x.Label))
	}
	for _, t := range x.Tokens {
		dst = append(dst, d.lemmaDense(t))
	}
	return dst
}

// reading is one target token's candidate senses (the network's frozen
// frequency-ordered list, read-only) with the document-matrix row of its
// first sense, -1 off the matrix; the k-th sense has row row+k.
type reading struct {
	senses []semnet.DenseID
	row    int32
}

// readings resolves the per-node path's candidate readings: the first
// token (the label when there are none) and, for a compound label, the
// second.
func (d *Disambiguator) readings(x *xmltree.Node) (tok0, tok1 reading, compound bool) {
	switch len(x.Tokens) {
	case 0:
		return d.reading(x.Label), reading{row: -1}, false
	case 1:
		return d.reading(x.Tokens[0]), reading{row: -1}, false
	default:
		return d.reading(x.Tokens[0]), d.reading(x.Tokens[1]), true
	}
}

func (d *Disambiguator) reading(tok string) reading {
	r := reading{row: -1}
	if l := d.lemmaDense(tok); l >= 0 {
		r.senses = d.net.LemmaSensesDense(l)
	}
	return r
}

// pick narrows a target's readings to what is scored: the sense pairs of a
// compound label whose two tokens are both known, else the senses of its
// one known token (b empty). ok is false when no token is known.
func pick(tok0, tok1 reading, compound bool) (a, b reading, ok bool) {
	switch {
	case !compound || len(tok1.senses) == 0:
		if len(tok0.senses) == 0 {
			return tok1, reading{row: -1}, len(tok1.senses) > 0
		}
		return tok0, reading{row: -1}, true
	case len(tok0.senses) == 0:
		return tok1, reading{row: -1}, true
	default:
		return tok0, tok1, true
	}
}

// monosemous is the outcome of a lone single-sense reading, which needs no
// context (Assumption 4: monosemous labels are unambiguous).
func (d *Disambiguator) monosemous(a reading) Sense {
	return Sense{Concepts: []semnet.ConceptID{d.conceptID(a.senses[0])}, Score: 1}
}

// conceptID converts a dense id back to its ConceptID for result Senses.
func (d *Disambiguator) conceptID(dc semnet.DenseID) semnet.ConceptID {
	id, _ := d.net.ConceptAt(dc)
	return id
}

// candidate is one reading of a target scored on the per-node path: a
// sense, or a sense pair for a compound label (Eq. 10/12).
type candidate struct {
	ids [2]semnet.DenseID
	n   int
}

// wordSim returns max_j Sim(s, s_j) over the senses of a context lemma,
// from the document matrix cell when one is given, else through the
// shared word memo, or straight from the uncached computation in bypass
// mode. Every cached read passes the cache-poison fault point, which
// chaos tests use to prove that a corrupted score degrades answer quality,
// never answer shape; a poisoned value replaces the read and enters
// neither the matrix nor the memo.
//
// A cell holds the complemented bits of the memo's value, so a zeroed
// cell reads as empty; a value whose complement is zero is never cached.
// Workers racing on one cell store identical bits. Memo reads are counted
// in tl.
func (d *Disambiguator) wordSim(s semnet.DenseID, lemma int32, cell *atomic.Uint64, tl *cacheTally) float64 {
	if d.bypassCache {
		return d.cache.Measure().WordSimDirectDense(s, lemma)
	}
	if v, ok := faultinject.PoisonSim(); ok {
		return v
	}
	if cell != nil {
		if b := cell.Load(); b != 0 {
			return math.Float64frombits(^b)
		}
	}
	v, hit := d.cache.Measure().WordSimDense(s, lemma)
	tl.sim(hit)
	if cell != nil {
		cell.Store(^math.Float64bits(v))
	}
	return v
}

// simToContextNode returns max_j Sim(s, s_j^i) over the senses of context
// node cn, for the candidate sense s. A compound context label is
// processed like a compound target (§3.5.1 note): the max over
// token-sense pairs of the average similarity, which factorizes into the
// average of per-token maxima — one word lookup per token.
func (d *Disambiguator) simToContextNode(s semnet.DenseID, pc *preparedContext, cn contextNode) float64 {
	var sum float64
	var counted int
	for i := cn.lemmaStart; i < cn.lemmaEnd; i++ {
		l := pc.lemmas[i]
		if l < 0 {
			continue
		}
		sum += d.wordSim(s, l, nil, pc.tally)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// conceptScoreCtx computes Concept_Score(s_p, S_d(x), S̄N) (Definition 8):
// the average over context nodes of the weighted maximum similarity
// between the candidate sense and the context node's senses. For a
// compound candidate (Eq. 10) the per-context-node similarity is the
// average of its two senses' similarities.
func (d *Disambiguator) conceptScoreCtx(c *candidate, pc *preparedContext) float64 {
	if pc.size == 0 {
		return 0
	}
	var total float64
	for _, cn := range pc.ctx {
		var s float64
		for i := 0; i < c.n; i++ {
			s += d.simToContextNode(c.ids[i], pc, cn)
		}
		s /= float64(c.n)
		total += s * cn.weight
	}
	return total / float64(pc.size)
}

// conceptVectorD returns the cached semantic-network context vector of a
// sense, counting the memo read in tl.
func (d *Disambiguator) conceptVectorD(c semnet.DenseID, tl *cacheTally) normedVector {
	if d.bypassCache {
		var s sphere.ConceptScratch
		return normed(sphere.ConceptVectorInto(d.net, c, d.opts.Radius, &s))
	}
	v, hit := d.vecs.concept(c)
	tl.vector(hit)
	return v
}

// pairVectorD returns the cached combined concept vector of a compound
// candidate pair, counting the memo read in tl. The pair is canonicalized
// to dense-ascending order so bypass and cached builds fold weights
// identically.
func (d *Disambiguator) pairVectorD(p, q semnet.DenseID, tl *cacheTally) normedVector {
	if d.bypassCache {
		if q < p {
			p, q = q, p
		}
		var s sphere.ConceptScratch
		return normed(sphere.CombinedConceptVectorInto(d.net, p, q, d.opts.Radius, &s))
	}
	v, hit := d.vecs.pair(p, q)
	tl.vector(hit)
	return v
}

// scoreAs evaluates one candidate under an explicit method on the
// per-node path — the seam the degradation ladder uses to force
// concept-only scoring (Definition 8) without touching the configured
// options.
func (d *Disambiguator) scoreAs(method Method, c *candidate, pc *preparedContext) float64 {
	switch method {
	case ConceptBased:
		return d.conceptScoreCtx(c, pc)
	case ContextBased:
		return d.contextScoreCtx(c, pc)
	default:
		wc, wx := d.mixWeights()
		return wc*d.conceptScoreCtx(c, pc) + wx*d.contextScoreCtx(c, pc)
	}
}

// mixWeights returns Eq. 13's w_Concept and w_Context, normalized to sum
// to 1 (equal when both are 0).
func (d *Disambiguator) mixWeights() (wc, wx float64) {
	wc, wx = d.opts.ConceptWeight, d.opts.ContextWeight
	if s := wc + wx; s > 0 {
		return wc / s, wx / s
	}
	return 0.5, 0.5
}

// contextScoreCtx is the context-based leg of scoreAs: Context_Score
// (Definition 10), the vector similarity between the target's XML context
// vector and the candidate sense's semantic-network context vector, or
// for a compound candidate (Eq. 12) the vector of the union of its two
// senses' spheres.
func (d *Disambiguator) contextScoreCtx(c *candidate, pc *preparedContext) float64 {
	if c.n == 2 {
		return d.vectorScore(pc.vec, d.pairVectorD(c.ids[0], c.ids[1], pc.tally))
	}
	return d.vectorScore(pc.vec, d.conceptVectorD(c.ids[0], pc.tally))
}

// vectorScore compares a target's context vector with a concept vector.
// With the default cosine both norms are precomputed, so it costs one
// merge for the dot product; the bypass oracle and the other measures run
// the generic function.
func (d *Disambiguator) vectorScore(ctx, cv normedVector) float64 {
	if d.opts.VectorSim != nil || d.bypassCache {
		return d.opts.vectorSim()(ctx.Vector, cv.Vector)
	}
	return sphere.CosineWithNorms(ctx.Vector, cv.Vector, ctx.norm2, cv.norm2)
}

// Node disambiguates a single target node: it enumerates candidate senses
// (or sense pairs for compound labels), scores each, and returns the best.
// ok is false when no token of the label is known to the network — the node
// is left untouched, which the evaluation counts against recall.
func (d *Disambiguator) Node(x *xmltree.Node) (Sense, bool) {
	return d.nodeWith(x, d.opts.Method)
}

// nodeWith is Node under an explicit method: the per-node path, which the
// degradation ladder's upper rungs also take for a target outside the
// document table. It scores through pooled scratch: context construction
// and candidate scoring allocate nothing in the warm steady state beyond
// the returned Sense.
func (d *Disambiguator) nodeWith(x *xmltree.Node, method Method) (Sense, bool) {
	a, b, ok := pick(d.readings(x))
	if !ok {
		return Sense{}, false
	}
	if len(b.senses) == 0 && len(a.senses) == 1 {
		return d.monosemous(a), true
	}
	s := ctxScratchPool.Get().(*ctxScratch)
	defer d.releaseScratch(s)
	return d.best(method, a, b, d.buildContextInto(x, s), s), true
}

// best scores every candidate of the picked readings on the per-node
// path, one scoreAs call each, and returns the winner.
func (d *Disambiguator) best(method Method, a, b reading, pc *preparedContext, s *ctxScratch) Sense {
	s.scores = s.scores[:0]
	if len(b.senses) == 0 {
		c := candidate{n: 1}
		for _, sp := range a.senses {
			c.ids[0] = sp
			s.scores = append(s.scores, d.scoreAs(method, &c, pc))
		}
	} else {
		c := candidate{n: 2}
		for _, sp := range a.senses {
			for _, sq := range b.senses {
				c.ids = [2]semnet.DenseID{sp, sq}
				s.scores = append(s.scores, d.scoreAs(method, &c, pc))
			}
		}
	}
	return d.winner(a, b, s.scores)
}

// winner returns the first highest-scoring candidate of the picked
// readings, given their scores in candidate order: a's senses, or the
// pairs of a's and b's senses with a's sense varying slowest.
func (d *Disambiguator) winner(a, b reading, scores []float64) Sense {
	bestScore, win := -1.0, 0
	for k, sc := range scores {
		if sc > bestScore {
			bestScore, win = sc, k
		}
	}
	if nb := len(b.senses); nb > 0 {
		return Sense{Concepts: []semnet.ConceptID{d.conceptID(a.senses[win/nb]), d.conceptID(b.senses[win%nb])}, Score: bestScore}
	}
	return Sense{Concepts: []semnet.ConceptID{d.conceptID(a.senses[win])}, Score: bestScore}
}

// Candidates scores every candidate sense (or sense pair) of a target node
// and returns them ordered best-first — the full ranking behind Node's
// winner, for explanation UIs and confidence estimation. Nil when no token
// of the label is known to the network.
func (d *Disambiguator) Candidates(x *xmltree.Node) []Sense {
	tok0, tok1, compound := d.readings(x)
	a, b, ok := pick(tok0, tok1, compound)
	if !ok {
		return nil
	}
	if !compound && len(a.senses) == 1 {
		return []Sense{d.monosemous(a)}
	}
	s := ctxScratchPool.Get().(*ctxScratch)
	defer d.releaseScratch(s)
	pc := d.buildContextInto(x, s)
	var out []Sense
	c := candidate{n: 1}
	if len(b.senses) == 0 {
		for _, sp := range a.senses {
			c.ids[0] = sp
			out = append(out, Sense{
				Concepts: []semnet.ConceptID{d.conceptID(sp)},
				Score:    d.scoreAs(d.opts.Method, &c, pc),
			})
		}
	} else {
		c.n = 2
		for _, sp := range a.senses {
			for _, sq := range b.senses {
				c.ids = [2]semnet.DenseID{sp, sq}
				out = append(out, Sense{
					Concepts: []semnet.ConceptID{d.conceptID(sp), d.conceptID(sq)},
					Score:    d.scoreAs(d.opts.Method, &c, pc),
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// Apply disambiguates every target node and writes the winning sense into
// Node.Sense/Node.SenseScore, returning the number of nodes that received a
// sense. Non-target nodes remain untouched (§3.1).
func (d *Disambiguator) Apply(targets []*xmltree.Node) int {
	assigned, _ := d.ApplyContext(context.Background(), targets)
	return assigned
}

// ApplyContext is ApplyReport reduced to the assigned count, the
// historical signature.
func (d *Disambiguator) ApplyContext(ctx context.Context, targets []*xmltree.Node) (int, error) {
	rep, err := d.ApplyReport(ctx, targets)
	return rep.Assigned, err
}

// ApplyReport is Apply with cooperative cancellation and graceful
// degradation. The context is checked before every target node (the unit
// of work of the per-node hot loop), so an abort returns within one node's
// disambiguation time. Nodes disambiguated before the abort keep their
// senses; the Report counts them.
//
// With Options.Degrade disabled (the default), a Done context aborts the
// run with an error matching xsdferrors.ErrCanceled, exactly as before the
// ladder existed. With the ladder enabled, a run that falls behind its
// deadline share steps down through cheaper scoring rungs (see
// Degradation) instead of failing: deadline expiry mid-run finishes the
// remaining targets at first-sense and returns a nil error with the
// achieved level in the Report, while an explicit cancellation returns the
// partial Report alongside a *xsdferrors.DegradedError (matching both
// ErrDegraded and ErrCanceled).
//
// With Options.Workers > 1, target nodes are fanned across a worker pool.
// Per-node semantics are preserved: the cancellation check, ladder-level
// draw, and NodeHook run before each node in its worker, every node writes
// only its own Sense/SenseScore/Degraded, and the shared caches make the
// assignments identical to a serial run. A panic on any worker is
// re-raised on the calling goroutine with its original value, so the
// pipeline's panic isolation (core.processOne, xsdf's recover seam) boxes
// it exactly as in serial mode.
//
// Before scoring, the run resolves the targets' tree once into a pooled
// table of preorder positions, label dimensions and lemma ids, and scores
// every target on it, with Definition 8's per-word maxima kept in a
// document-local matrix. A target outside that tree, and a tree whose
// Index fields are not its preorder ranks, take Node's per-node path; the
// results are the same bits either way.
func (d *Disambiguator) ApplyReport(ctx context.Context, targets []*xmltree.Node) (Report, error) {
	b := newBudget(ctx, len(targets), d.opts.Degrade)
	tab := d.docTableFor(targets)
	defer tab.release()
	if w := d.workerCount(len(targets)); w > 1 {
		return d.applyParallel(ctx, targets, w, b, tab)
	}
	s := ctxScratchPool.Get().(*ctxScratch)
	defer d.releaseScratch(s)
	assigned, attempted := 0, 0
	done := ctx.Done()
	for _, x := range targets {
		if done != nil {
			select {
			case <-done:
				if degradeThrough(b, ctx) {
					// Deadline expired with the ladder on: ride out the
					// rest at the last rung. ctx.Err() has latched, so
					// stop polling it.
					b.raise(xsdferrors.DegradeFirstSense)
					done = nil
				} else {
					rep := finishReport(b, assigned, attempted, len(targets))
					return rep, abortErr(b, rep, ctx)
				}
			default:
			}
		}
		lvl := xsdferrors.DegradeNone
		if b != nil {
			lvl = b.next()
		}
		attempted++
		if d.opts.NodeHook != nil {
			d.opts.NodeHook(x)
		}
		faultinject.NodeStart()
		if lvl > xsdferrors.DegradeNone {
			x.Degraded = lvl
		}
		if sn, ok := d.nodeAt(x, lvl, tab, s); ok {
			x.Sense = sn.ID()
			x.SenseScore = sn.Score
			assigned++
		}
	}
	return finishReport(b, assigned, attempted, len(targets)), nil
}

// finishReport folds either the budget counters (ladder on) or the plain
// attempt count (ladder off) into a Report upholding the accounting
// invariant NodesAtLevel sum + Unscored == total.
func finishReport(b *budget, assigned, attempted, total int) Report {
	if b != nil {
		return b.report(assigned, total)
	}
	rep := Report{Assigned: assigned}
	rep.NodesAtLevel[xsdferrors.DegradeNone] = attempted
	rep.Unscored = total - attempted
	return rep
}

// abortErr is the error for a run cut short by its context: a
// *xsdferrors.DegradedError carrying the achieved level when the ladder
// was on, the plain canceled error otherwise.
func abortErr(b *budget, rep Report, ctx context.Context) error {
	if b == nil {
		return xsdferrors.Canceled(ctx.Err())
	}
	return &xsdferrors.DegradedError{
		Level:    rep.Level,
		Unscored: rep.Unscored,
		Cause:    xsdferrors.Canceled(ctx.Err()),
	}
}

func (d *Disambiguator) workerCount(targets int) int {
	w := d.opts.Workers
	if w > targets {
		w = targets
	}
	return w
}

// applyParallel is the Workers > 1 fan-out of ApplyReport.
func (d *Disambiguator) applyParallel(ctx context.Context, targets []*xmltree.Node, workers int, b *budget, tab *docTable) (Report, error) {
	var assigned, attempted atomic.Int64
	var (
		panicOnce sync.Once
		panicVal  any
		quit      = make(chan struct{}) // closed on first worker panic
	)
	jobs := make(chan *xmltree.Node)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicOnce.Do(func() {
						panicVal = v
						close(quit)
					})
				}
			}()
			s := ctxScratchPool.Get().(*ctxScratch)
			defer d.releaseScratch(s)
			done := ctx.Done()
			for x := range jobs {
				if done != nil {
					select {
					case <-done:
						if !degradeThrough(b, ctx) {
							return
						}
						b.raise(xsdferrors.DegradeFirstSense)
						done = nil
					default:
					}
				}
				lvl := xsdferrors.DegradeNone
				if b != nil {
					lvl = b.next()
				}
				attempted.Add(1)
				if d.opts.NodeHook != nil {
					d.opts.NodeHook(x)
				}
				faultinject.NodeStart()
				if lvl > xsdferrors.DegradeNone {
					x.Degraded = lvl
				}
				if sn, ok := d.nodeAt(x, lvl, tab, s); ok {
					x.Sense = sn.ID()
					x.SenseScore = sn.Score
					assigned.Add(1)
				}
			}
		}()
	}
	aborted := false
	done := ctx.Done()
dispatch:
	for _, x := range targets {
	send:
		for {
			select {
			case jobs <- x:
				break send
			case <-done:
				if degradeThrough(b, ctx) {
					// Keep dispatching: workers finish the tail at the
					// last rung.
					done = nil
					continue send
				}
				aborted = true
				break dispatch
			case <-quit:
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	if panicVal != nil {
		// Re-raise with the original value so recover seams upstream see
		// the same panic a serial run would produce.
		panic(panicVal)
	}
	rep := finishReport(b, int(assigned.Load()), int(attempted.Load()), len(targets))
	if aborted || (ctx.Err() != nil && !degradeThrough(b, ctx)) {
		return rep, abortErr(b, rep, ctx)
	}
	return rep, nil
}
