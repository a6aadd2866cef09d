// Package disambig implements XSDF's semantic disambiguation module (§3.5):
// concept-based scoring (Definition 8 and its compound-label variant,
// Eq. 10), context-based scoring (Definition 10 and Eq. 12), and the
// user-weighted combination of both (Eq. 13).
package disambig

import (
	"context"
	"fmt"
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
// against one semantic network. It memoizes similarity scores, semantic-
// network sphere vectors (through a Cache, which may be shared across
// documents), and per-node prepared contexts, so reusing one Disambiguator
// across the nodes of a document — or calling the per-candidate scoring
// APIs repeatedly for one node — costs each underlying computation once.
//
// A Disambiguator is safe for concurrent use: all memos are concurrency-
// safe and the semantic network is immutable. The only mutation it
// performs is writing Sense/SenseScore into the target nodes handed to
// Apply/ApplyContext; callers must not hand the same node to two
// concurrent Apply calls.
type Disambiguator struct {
	net   *semnet.Network
	opts  Options
	cache *Cache

	// ctxMemo memoizes prepareContext per target node (keyed by node
	// pointer), making the public per-candidate APIs (ConceptScore,
	// ContextScore, ...) linear instead of accidentally quadratic. It
	// assumes the tree's structure, labels, and tokens stay fixed while
	// the Disambiguator is in use — true for the pipeline, which finishes
	// linguistic pre-processing before disambiguation starts.
	ctxMemo sync.Map // *xmltree.Node -> *preparedContext

	// bypassCache, set only by differential tests, recomputes every
	// similarity, vector, and context from scratch on each call; golden
	// tests assert the cached and bypass paths agree bit for bit.
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

// preparedContext is the fully-resolved sphere context of one target node:
// the Definition 6–7 context vector, one label id per member token (-1
// when the token names no concept), and the sphere size.
type preparedContext struct {
	vec    sphere.Vector
	ctx    []contextNode
	lemmas []int32
	size   int
}

// ctxScratch bundles the reusable buffers of one context build: the sphere
// BFS scratch, the vector fold scratch, the per-member dimension slice,
// and the preparedContext whose slices are reused across nodes. nodeWith
// draws one from ctxScratchPool per node, so the per-node steady state of
// Apply allocates nothing for context construction.
type ctxScratch struct {
	sph        sphere.Scratch
	vec        sphere.VecScratch
	memberDims []int32
	pc         preparedContext
}

var ctxScratchPool = sync.Pool{New: func() any { return new(ctxScratch) }}

// prepareContext returns the memoized sphere context of a target node,
// building it on first use — the path of the public per-candidate APIs
// (ConceptScore, ContextScore, Candidates), which may revisit one node
// many times. The center node is excluded from the scoring context (its
// self-similarity is a constant offset for every candidate, cf.
// Definition 8) but participates in the vector per the Figure 7
// convention.
func (d *Disambiguator) prepareContext(x *xmltree.Node) *preparedContext {
	if d.bypassCache {
		return d.buildContext(x)
	}
	if v, ok := d.ctxMemo.Load(x); ok {
		return v.(*preparedContext)
	}
	pc := d.buildContext(x)
	if v, loaded := d.ctxMemo.LoadOrStore(x, pc); loaded {
		return v.(*preparedContext) // a concurrent builder won; both are identical
	}
	return pc
}

// buildContext builds an owned preparedContext (for memoization or cache
// bypass): the build runs through a private scratch that is deliberately
// not pooled, so the returned context's slices alias nothing reused.
func (d *Disambiguator) buildContext(x *xmltree.Node) *preparedContext {
	s := new(ctxScratch)
	pc := *d.buildContextInto(x, s)
	return &pc
}

// contextFor resolves the context for one nodeWith call: through the
// reusable scratch on the hot path, through the memo for public API calls
// (s == nil).
func (d *Disambiguator) contextFor(x *xmltree.Node, s *ctxScratch) *preparedContext {
	if s != nil {
		return d.buildContextInto(x, s)
	}
	return d.prepareContext(x)
}

// buildContextInto runs the sphere BFS once and derives the membership,
// the context vector, and the per-member token lemma ids from that single
// walk, reusing every buffer in s. The result aliases s.
func (d *Disambiguator) buildContextInto(x *xmltree.Node, s *ctxScratch) *preparedContext {
	members := sphere.SphereInto(x, d.opts.Radius, d.opts.FollowLinks, &s.sph)
	if cap(s.memberDims) < len(members) {
		s.memberDims = make([]int32, len(members))
	}
	md := s.memberDims[:len(members)]
	pc := &s.pc
	pc.vec = sphere.VectorFromMembersInto(members, d.opts.Radius, d.net, &s.vec, md)
	pc.size = len(members)
	pc.ctx = pc.ctx[:0]
	pc.lemmas = pc.lemmas[:0]
	for i, m := range members {
		if m.Node == x {
			continue
		}
		var w float64
		if md[i] >= 0 {
			w = pc.vec.WeightOf(md[i])
		}
		start := int32(len(pc.lemmas))
		if toks := m.Node.Tokens; len(toks) > 0 {
			for _, t := range toks {
				pc.lemmas = append(pc.lemmas, d.lemmaDense(t))
			}
		} else {
			pc.lemmas = append(pc.lemmas, d.lemmaDense(m.Node.Label))
		}
		pc.ctx = append(pc.ctx, contextNode{weight: w, lemmaStart: start, lemmaEnd: int32(len(pc.lemmas))})
	}
	return pc
}

// senses looks a token up in the semantic network, through the
// fault-injection seam: an injected lookup fault behaves like a failed
// semantic-network backend (no senses) without touching the network.
func (d *Disambiguator) senses(tok string) []semnet.ConceptID {
	if faultinject.DropLookup() {
		return nil
	}
	return d.net.Senses(tok)
}

// lemmaDense is the dense form of the senses lookup: the token's label id,
// or -1 when it names no concept or an injected lookup fault fires.
func (d *Disambiguator) lemmaDense(tok string) int32 {
	if faultinject.DropLookup() {
		return -1
	}
	return d.net.LemmaDense(tok)
}

// sensesDense returns the token's senses in dense ids through lemmaDense;
// the slice is the network's frozen frequency-ordered sense list
// (read-only), nil when the lookup fails.
func (d *Disambiguator) sensesDense(tok string) []semnet.DenseID {
	if l := d.lemmaDense(tok); l >= 0 {
		return d.net.LemmaSensesDense(l)
	}
	return nil
}

// conceptID converts a dense id back to its ConceptID for result Senses.
func (d *Disambiguator) conceptID(dc semnet.DenseID) semnet.ConceptID {
	id, _ := d.net.ConceptAt(dc)
	return id
}

// denseCandidate resolves public-API ConceptIDs into the dense candidate
// buffer; ids outside the network become the -1 sentinel (they score 0
// against every known concept, exactly as the string-keyed measures did).
func (d *Disambiguator) denseCandidate(buf []semnet.DenseID, ids ...semnet.ConceptID) []semnet.DenseID {
	buf = buf[:0]
	for _, c := range ids {
		dc, ok := d.net.Dense(c)
		if !ok {
			dc = -1
		}
		buf = append(buf, dc)
	}
	return buf
}

// wordSim returns max_j Sim(s, s_j) over the senses of a context lemma
// through the shared word memo, or straight from the uncached computation
// in bypass mode. Cached reads pass the cache-poison fault point, which
// chaos tests use to prove that a corrupted score degrades answer quality,
// never answer shape; a poisoned value replaces the read and never enters
// the memo. The -1 sentinel (a public-API candidate outside the network)
// scores 0, the exact value the component measures produce for unknown
// concepts.
func (d *Disambiguator) wordSim(s semnet.DenseID, lemma int32) float64 {
	if d.bypassCache {
		if s < 0 {
			return 0
		}
		return d.cache.Measure().WordSimDirectDense(s, lemma)
	}
	if v, ok := faultinject.PoisonSim(); ok {
		return v
	}
	if s < 0 {
		return 0
	}
	return d.cache.Measure().WordSimDense(s, lemma)
}

// simToContextNode returns max_j Sim(s, s_j^i) over the senses of context
// node cn. A compound context label is processed like a compound target
// (§3.5.1 note): the max over token-sense pairs of the average similarity,
// which factorizes into the average of per-token maxima — one word lookup
// per token.
func (d *Disambiguator) simToContextNode(s semnet.DenseID, pc *preparedContext, cn contextNode) float64 {
	var sum float64
	var counted int
	for _, l := range pc.lemmas[cn.lemmaStart:cn.lemmaEnd] {
		if l < 0 {
			continue
		}
		sum += d.wordSim(s, l)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// ConceptScore computes Concept_Score(s_p, S_d(x), S̄N) (Definition 8): the
// average over context nodes of the weighted maximum similarity between the
// candidate sense and the context node's senses. The node's context is
// memoized, so per-candidate calls cost one pass over the context, not one
// sphere construction each.
func (d *Disambiguator) ConceptScore(sp semnet.ConceptID, x *xmltree.Node) float64 {
	var buf [2]semnet.DenseID
	return d.conceptScoreCtx(d.denseCandidate(buf[:0], sp), d.prepareContext(x))
}

// ConceptScoreCompound computes Eq. 10 for a compound target label: the
// candidate is a pair of senses (s_p for token 1, s_q for token 2) and the
// per-context-node similarity is the average of the individual
// similarities.
func (d *Disambiguator) ConceptScoreCompound(sp, sq semnet.ConceptID, x *xmltree.Node) float64 {
	var buf [2]semnet.DenseID
	return d.conceptScoreCtx(d.denseCandidate(buf[:0], sp, sq), d.prepareContext(x))
}

func (d *Disambiguator) conceptScoreCtx(candidate []semnet.DenseID, pc *preparedContext) float64 {
	if pc.size == 0 {
		return 0
	}
	var total float64
	for _, cn := range pc.ctx {
		var s float64
		for _, c := range candidate {
			s += d.simToContextNode(c, pc, cn)
		}
		s /= float64(len(candidate))
		total += s * cn.weight
	}
	return total / float64(pc.size)
}

// conceptVectorD returns the cached semantic-network context vector of a
// sense (empty for the -1 sentinel).
func (d *Disambiguator) conceptVectorD(c semnet.DenseID) sphere.Vector {
	if c < 0 {
		return sphere.Vector{}
	}
	if d.bypassCache {
		var s sphere.ConceptScratch
		return sphere.ConceptVectorInto(d.net, c, d.opts.Radius, &s)
	}
	return d.cache.ConceptVectorDense(c, d.opts.Radius)
}

// pairVectorD returns the cached combined concept vector of a compound
// candidate pair (empty when either id is the -1 sentinel). The pair is
// canonicalized to dense-ascending order so bypass and cached builds fold
// weights identically.
func (d *Disambiguator) pairVectorD(p, q semnet.DenseID) sphere.Vector {
	if p < 0 || q < 0 {
		return sphere.Vector{}
	}
	if d.bypassCache {
		if q < p {
			p, q = q, p
		}
		var s sphere.ConceptScratch
		return sphere.CombinedConceptVectorInto(d.net, p, q, d.opts.Radius, &s)
	}
	return d.cache.PairVectorDense(p, q, d.opts.Radius)
}

// ContextScore computes Context_Score(s_p, S_d(x), SN) (Definition 10): the
// vector similarity between the target's XML context vector and the
// candidate sense's semantic-network context vector.
func (d *Disambiguator) ContextScore(sp semnet.ConceptID, x *xmltree.Node) float64 {
	var buf [2]semnet.DenseID
	cand := d.denseCandidate(buf[:0], sp)
	return d.opts.vectorSim()(d.prepareContext(x).vec, d.conceptVectorD(cand[0]))
}

// ContextScoreCompound computes Eq. 12: the candidate pair's combined
// semantic-network sphere (union of the two sense spheres) against the
// target's XML context vector.
func (d *Disambiguator) ContextScoreCompound(sp, sq semnet.ConceptID, x *xmltree.Node) float64 {
	var buf [2]semnet.DenseID
	cand := d.denseCandidate(buf[:0], sp, sq)
	return d.opts.vectorSim()(d.prepareContext(x).vec, d.pairVectorD(cand[0], cand[1]))
}

// scoreAs evaluates one candidate (1- or 2-sense, dense) under an explicit
// method — the seam the degradation ladder uses to force concept-only
// scoring (Definition 8) without touching the configured options.
func (d *Disambiguator) scoreAs(method Method, candidate []semnet.DenseID, pc *preparedContext) float64 {
	switch method {
	case ConceptBased:
		return d.conceptScoreCtx(candidate, pc)
	case ContextBased:
		return d.contextScoreCtx(candidate, pc)
	default:
		wc, wx := d.opts.ConceptWeight, d.opts.ContextWeight
		if s := wc + wx; s > 0 {
			wc, wx = wc/s, wx/s
		} else {
			wc, wx = 0.5, 0.5
		}
		return wc*d.conceptScoreCtx(candidate, pc) + wx*d.contextScoreCtx(candidate, pc)
	}
}

// contextScoreCtx is the context-based leg of scoreAs.
func (d *Disambiguator) contextScoreCtx(candidate []semnet.DenseID, pc *preparedContext) float64 {
	var cv sphere.Vector
	if len(candidate) == 2 {
		cv = d.pairVectorD(candidate[0], candidate[1])
	} else {
		cv = d.conceptVectorD(candidate[0])
	}
	return d.opts.vectorSim()(pc.vec, cv)
}

// Node disambiguates a single target node: it enumerates candidate senses
// (or sense pairs for compound labels), scores each, and returns the best.
// ok is false when no token of the label is known to the network — the node
// is left untouched, which the evaluation counts against recall.
func (d *Disambiguator) Node(x *xmltree.Node) (Sense, bool) {
	return d.nodeWith(x, d.opts.Method)
}

// nodeWith is Node under an explicit method, the per-node entry point of
// the degradation ladder's upper rungs. It scores through pooled scratch:
// context construction and candidate scoring allocate nothing in the warm
// steady state beyond the returned Sense.
func (d *Disambiguator) nodeWith(x *xmltree.Node, method Method) (Sense, bool) {
	tok0 := x.Label
	tok1 := ""
	compound := false
	switch len(x.Tokens) {
	case 0:
	case 1:
		tok0 = x.Tokens[0]
	default:
		tok0, tok1 = x.Tokens[0], x.Tokens[1]
		compound = true
	}
	if !compound {
		senses := d.sensesDense(tok0)
		if len(senses) == 0 {
			return Sense{}, false
		}
		if len(senses) == 1 {
			// Assumption 4: monosemous labels are unambiguous.
			return Sense{Concepts: []semnet.ConceptID{d.conceptID(senses[0])}, Score: 1}, true
		}
		s := ctxScratchPool.Get().(*ctxScratch)
		defer ctxScratchPool.Put(s)
		pc := d.contextFor(x, s)
		bestC, bestScore := d.bestSingle(senses, method, pc)
		return Sense{Concepts: []semnet.ConceptID{d.conceptID(bestC)}, Score: bestScore}, true
	}
	sensesP := d.sensesDense(tok0)
	sensesQ := d.sensesDense(tok1)
	if len(sensesP) == 0 && len(sensesQ) == 0 {
		return Sense{}, false
	}
	// If only one token is known, fall back to single-token candidates.
	if len(sensesP) == 0 {
		return d.singleTokenFallback(sensesQ, x, method)
	}
	if len(sensesQ) == 0 {
		return d.singleTokenFallback(sensesP, x, method)
	}
	s := ctxScratchPool.Get().(*ctxScratch)
	defer ctxScratchPool.Put(s)
	pc := d.contextFor(x, s)
	var cand [2]semnet.DenseID
	bestScore := -1.0
	var bestP, bestQ semnet.DenseID
	for _, sp := range sensesP {
		for _, sq := range sensesQ {
			cand[0], cand[1] = sp, sq
			if sc := d.scoreAs(method, cand[:2], pc); sc > bestScore {
				bestScore, bestP, bestQ = sc, sp, sq
			}
		}
	}
	return Sense{Concepts: []semnet.ConceptID{d.conceptID(bestP), d.conceptID(bestQ)}, Score: bestScore}, true
}

// bestSingle scores every single-sense candidate and returns the winner.
func (d *Disambiguator) bestSingle(senses []semnet.DenseID, method Method, pc *preparedContext) (semnet.DenseID, float64) {
	var cand [2]semnet.DenseID
	bestScore := -1.0
	best := senses[0]
	for _, sp := range senses {
		cand[0] = sp
		if sc := d.scoreAs(method, cand[:1], pc); sc > bestScore {
			bestScore, best = sc, sp
		}
	}
	return best, bestScore
}

func (d *Disambiguator) singleTokenFallback(senses []semnet.DenseID, x *xmltree.Node, method Method) (Sense, bool) {
	if len(senses) == 1 {
		return Sense{Concepts: []semnet.ConceptID{d.conceptID(senses[0])}, Score: 1}, true
	}
	s := ctxScratchPool.Get().(*ctxScratch)
	defer ctxScratchPool.Put(s)
	pc := d.contextFor(x, s)
	bestC, bestScore := d.bestSingle(senses, method, pc)
	return Sense{Concepts: []semnet.ConceptID{d.conceptID(bestC)}, Score: bestScore}, true
}

// Candidates scores every candidate sense (or sense pair) of a target node
// and returns them ordered best-first — the full ranking behind Node's
// winner, for explanation UIs and confidence estimation. Nil when no token
// of the label is known to the network. As a public per-candidate API it
// goes through the memoized context.
func (d *Disambiguator) Candidates(x *xmltree.Node) []Sense {
	tok0 := x.Label
	tok1 := ""
	compound := false
	switch len(x.Tokens) {
	case 0:
	case 1:
		tok0 = x.Tokens[0]
	default:
		tok0, tok1 = x.Tokens[0], x.Tokens[1]
		compound = true
	}
	var out []Sense
	var cand [2]semnet.DenseID
	if !compound {
		senses := d.sensesDense(tok0)
		if len(senses) == 0 {
			return nil
		}
		if len(senses) == 1 {
			return []Sense{{Concepts: []semnet.ConceptID{d.conceptID(senses[0])}, Score: 1}}
		}
		pc := d.prepareContext(x)
		for _, sp := range senses {
			cand[0] = sp
			out = append(out, Sense{
				Concepts: []semnet.ConceptID{d.conceptID(sp)},
				Score:    d.scoreAs(d.opts.Method, cand[:1], pc),
			})
		}
	} else {
		sensesP := d.sensesDense(tok0)
		sensesQ := d.sensesDense(tok1)
		if len(sensesP) == 0 && len(sensesQ) == 0 {
			return nil
		}
		switch {
		case len(sensesP) == 0 || len(sensesQ) == 0:
			single := sensesP
			if len(single) == 0 {
				single = sensesQ
			}
			pc := d.prepareContext(x)
			for _, sp := range single {
				cand[0] = sp
				out = append(out, Sense{
					Concepts: []semnet.ConceptID{d.conceptID(sp)},
					Score:    d.scoreAs(d.opts.Method, cand[:1], pc),
				})
			}
		default:
			pc := d.prepareContext(x)
			for _, sp := range sensesP {
				for _, sq := range sensesQ {
					cand[0], cand[1] = sp, sq
					out = append(out, Sense{
						Concepts: []semnet.ConceptID{d.conceptID(sp), d.conceptID(sq)},
						Score:    d.scoreAs(d.opts.Method, cand[:2], pc),
					})
				}
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
func (d *Disambiguator) ApplyReport(ctx context.Context, targets []*xmltree.Node) (Report, error) {
	b := newBudget(ctx, len(targets), d.opts.Degrade)
	if w := d.workerCount(len(targets)); w > 1 {
		return d.applyParallel(ctx, targets, w, b)
	}
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
		if s, ok := d.nodeAt(x, lvl); ok {
			x.Sense = s.ID()
			x.SenseScore = s.Score
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
func (d *Disambiguator) applyParallel(ctx context.Context, targets []*xmltree.Node, workers int, b *budget) (Report, error) {
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
				if s, ok := d.nodeAt(x, lvl); ok {
					x.Sense = s.ID()
					x.SenseScore = s.Score
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
