// Package xsdf is the public API of the XSDF reproduction: an XML Semantic
// Disambiguation Framework (Charbel, Tekli, Chbeir, Tekli — EDBT 2015) that
// turns syntactic XML documents into semantic XML trees whose ambiguous
// element/attribute labels and text tokens are annotated with unambiguous
// concepts from a reference semantic network.
//
// Quickstart:
//
//	fw, _ := xsdf.New(xsdf.Options{})
//	res, _ := fw.DisambiguateString(`<picture title="Rear Window">...`)
//	res.Tree.WriteXML(os.Stdout, true)
//
// The zero Options use the embedded mini-WordNet lexicon, select every node
// for disambiguation, and run the concept-based process with sphere radius
// 1. See Options for every tunable parameter the paper exposes.
package xsdf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/ambiguity"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/lingproc"
	"repro/internal/metrics"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// Error taxonomy of the fault-tolerant execution layer, re-exported from
// repro/xsdferrors so callers can dispatch on failure modes with
// errors.Is / errors.As without importing a second package.
var (
	// ErrCanceled matches failures caused by context cancellation or
	// deadline expiry (the underlying context error stays matchable too).
	ErrCanceled = xsdferrors.ErrCanceled
	// ErrLimitExceeded matches any tripped resource guard; the concrete
	// error is a *LimitError naming the guard and the bound.
	ErrLimitExceeded = xsdferrors.ErrLimitExceeded
	// ErrMalformedInput matches parse failures on non-well-formed XML.
	ErrMalformedInput = xsdferrors.ErrMalformedInput
	// ErrUnknownOption matches option values outside the documented set.
	ErrUnknownOption = xsdferrors.ErrUnknownOption
	// ErrOverloaded matches documents turned away by the admission gate
	// (Options.Admission); the concrete error is an *OverloadError.
	ErrOverloaded = xsdferrors.ErrOverloaded
	// ErrDegraded matches runs cut short mid-degradation-ladder: the
	// returned *DegradedError rides alongside a partial Result.
	ErrDegraded = xsdferrors.ErrDegraded
	// ErrReloadFailed matches lexicon hot-swap failures (Framework.Reload):
	// the concrete error is a *ReloadError naming the stage that refused the
	// candidate. The serving snapshot is untouched on any such failure.
	ErrReloadFailed = xsdferrors.ErrReloadFailed
)

type (
	// LimitError reports which resource guard rejected an input.
	LimitError = xsdferrors.LimitError
	// PanicError boxes a panic recovered from a pipeline worker.
	PanicError = xsdferrors.PanicError
	// BatchError is the per-document failure report of a batch run.
	BatchError = xsdferrors.BatchError
	// OverloadError reports the admission-gate state that rejected a
	// document.
	OverloadError = xsdferrors.OverloadError
	// DegradedError reports a run canceled mid-ladder: the achieved level
	// and the targets never scored. It matches both ErrDegraded and
	// ErrCanceled.
	DegradedError = xsdferrors.DegradedError
	// ReloadError reports which stage of a staged lexicon reload (load,
	// validate, canary, swap) rejected the candidate, and why.
	ReloadError = xsdferrors.ReloadError
)

// DegradationLevel identifies a rung of the graceful-degradation ladder.
type DegradationLevel = xsdferrors.DegradationLevel

// The ladder rungs, cheapest last.
const (
	// DegradeNone is full-quality scoring under the configured method.
	DegradeNone = xsdferrors.DegradeNone
	// DegradeConceptOnly drops context vectors: concept-based scoring
	// only (Definition 8).
	DegradeConceptOnly = xsdferrors.DegradeConceptOnly
	// DegradeFirstSense assigns each token its most frequent sense with
	// no scoring at all — the MFS baseline.
	DegradeFirstSense = xsdferrors.DegradeFirstSense
	// NumDegradationLevels sizes per-level accounting arrays.
	NumDegradationLevels = xsdferrors.NumDegradationLevels
)

// Re-exported building blocks so downstream users can work with results
// without importing internal packages.
type (
	// Tree is the rooted ordered labeled XML tree (Definition 1).
	Tree = xmltree.Tree
	// Node is one tree node; disambiguated nodes carry Sense/SenseScore.
	Node = xmltree.Node
	// Network is a semantic network (Definition 2).
	Network = semnet.Network
	// ConceptID identifies a concept (word sense) in a Network.
	ConceptID = semnet.ConceptID
)

// NodeKind distinguishes element, attribute, and text-token nodes.
type NodeKind = xmltree.Kind

// The three node kinds of the document model (§3.1).
const (
	ElementNode   = xmltree.Element
	AttributeNode = xmltree.Attribute
	TokenNode     = xmltree.Token
)

// Method selects the disambiguation process of §3.5.
type Method = disambig.Method

// The three disambiguation processes.
const (
	ConceptBased = disambig.ConceptBased
	ContextBased = disambig.ContextBased
	Combined     = disambig.Combined
)

// DegradeOptions configures the graceful-degradation ladder (see
// Options.Degrade): node-count watermarks and deadline-pacing parameters.
type DegradeOptions = disambig.Degradation

// AdmissionOptions configures the admission gate (see Options.Admission):
// in-flight document/node bounds and the bounded wait for capacity.
type AdmissionOptions = core.AdmissionOptions

// GateStats is a snapshot of the admission gate: occupancy plus cumulative
// admission/rejection/wait counters (see Framework.GateStats).
type GateStats = core.GateStats

// StageTiming is one pipeline stage's record within a single run: the
// stage name, the number of items it worked over (nodes guarded, targets
// disambiguated, labels harmonized, ...), its monotonic duration, and
// whether the run stopped at it (see Result.Stages).
type StageTiming = core.StageTiming

// StageStats is one pipeline stage's cumulative accounting across a
// framework's lifetime: calls, errors, items, and total duration (see
// Framework.StageStats).
type StageStats = core.StageStats

// The pipeline stage names, in execution order, as they appear in
// StageTiming.Stage and StageStats.Stage.
const (
	StageGuard        = core.StageGuard
	StageAdmission    = core.StageAdmission
	StagePreprocess   = core.StagePreprocess
	StageSelect       = core.StageSelect
	StageDisambiguate = core.StageDisambiguate
	StageHarmonize    = core.StageHarmonize
)

// Options exposes every user parameter of the framework (Motivation 4).
// Zero values select the documented defaults.
type Options struct {
	// Network is the reference semantic network; nil selects the embedded
	// mini-WordNet (wordnet.Default()).
	Network *Network

	// StructureOnly drops element/attribute text values from the tree
	// (§3.1); the default considers structure and content.
	StructureOnly bool

	// AmbiguityWeights are w_Polysemy/w_Depth/w_Density of the ambiguity
	// degree (Definition 3). All-zero selects equal weights (1,1,1).
	AmbiguityWeights struct{ Polysemy, Depth, Density float64 }

	// Threshold is Thresh_Amb: only nodes with Amb_Deg >= Threshold are
	// disambiguated. 0 disambiguates every node.
	Threshold float64

	// AutoThreshold estimates Thresh_Amb from the document itself
	// (mean + AutoThresholdK stddev of the degree distribution).
	AutoThreshold  bool
	AutoThresholdK float64

	// Radius is the sphere neighborhood context size d (default 1).
	Radius int

	// Method is the disambiguation process (default ConceptBased).
	Method Method

	// SimilarityWeights combine the edge-based (Wu-Palmer), node-based
	// (Lin), and gloss-based (extended overlap) measures (Definition 9).
	// All-zero selects equal thirds.
	SimilarityWeights struct{ Edge, Node, Gloss float64 }

	// ConceptWeight/ContextWeight mix the two processes under the Combined
	// method (Eq. 13). Both zero selects 0.5/0.5.
	ConceptWeight float64
	ContextWeight float64

	// VectorSimilarity names the context-vector similarity: "cosine"
	// (default), "jaccard", or "pearson" (footnote 10).
	VectorSimilarity string

	// FollowLinks resolves ID/IDREF hyperlinks after parsing and lets
	// sphere contexts traverse them, treating the document as a graph (§1).
	// Dangling references are tolerated (resolvable links still apply).
	FollowLinks bool

	// NodeWorkers enables intra-document parallelism: the number of
	// goroutines the target nodes of one document are fanned across
	// during disambiguation. 0 or 1 keeps the serial per-node loop (the
	// default — batch runs already parallelize across documents);
	// negative selects GOMAXPROCS. Sense assignments are identical to a
	// serial run: workers share the framework's concurrency-safe caches
	// and each node's result depends only on the immutable network and
	// the node's own context.
	NodeWorkers int

	// OneSensePerDiscourse harmonizes repeated labels to a single document
	// sense after disambiguation (the Gale-Church-Yarowsky heuristic;
	// extension beyond the paper).
	OneSensePerDiscourse bool

	// Degrade configures the graceful-degradation ladder: under deadline
	// pressure (or past the node-count watermarks) scoring steps down
	//
	//	configured method → concept-only → first-sense
	//
	// instead of failing, and the achieved level is reported per node
	// (Node.Degraded) and per document (Result.Degraded). The zero value
	// keeps the historical fail-on-deadline behavior.
	Degrade DegradeOptions

	// Admission bounds concurrent work: documents arriving beyond
	// MaxDocs/MaxNodes wait up to MaxWait and are then rejected with an
	// *OverloadError, so an overloaded process sheds load instead of
	// slowing every caller. The zero value admits everything.
	Admission AdmissionOptions

	// MaxDepth, MaxNodes, and MaxTokenBytes are resource guards against
	// hostile inputs: element nesting depth, total node count, and the
	// byte size of a single text value. Zero selects the safe defaults
	// (xmltree.DefaultMaxDepth etc.); negative disables a guard. They
	// apply both at parse time (Disambiguate) and to pre-parsed trees
	// (DisambiguateTree, DisambiguateBatch); violations surface as
	// *LimitError.
	MaxDepth      int
	MaxNodes      int
	MaxTokenBytes int
}

// Framework is a reusable disambiguation pipeline.
type Framework struct {
	inner       *core.Framework
	followLinks bool
	limits      struct{ depth, nodes, tokenBytes int } // as given (0 = default, <0 = off)
}

// Result reports a disambiguation run.
type Result struct {
	// Tree is the semantically augmented document tree.
	Tree *Tree
	// Targets is the number of nodes selected for disambiguation and
	// Assigned the number that received a sense.
	Targets  int
	Assigned int
	// Threshold is the effective Thresh_Amb used.
	Threshold float64
	// Degraded is the worst degradation-ladder level any target was scored
	// at (DegradeNone when the ladder is off or never stepped down), and
	// NodesAtLevel counts the targets attempted at each rung. Unscored is
	// the number of targets never attempted — non-zero only alongside an
	// ErrDegraded error. NodesAtLevel sum + Unscored == Targets always.
	Degraded     DegradationLevel
	NodesAtLevel [NumDegradationLevels]int
	Unscored     int
	// LinksResolved and LinksDangling report hyperlink resolution under
	// Options.FollowLinks: the number of ID/IDREF edges installed and the
	// number of references whose anchor did not exist. Dangling references
	// degrade gracefully (resolvable links still apply), so they are
	// reported here rather than failing the run. Both are zero when
	// FollowLinks is off or the document was parsed by the caller.
	LinksResolved int
	LinksDangling int
	// Stages is the per-stage instrumentation of this run: one entry per
	// attempted pipeline stage, in execution order, with each stage's item
	// count and monotonic duration — the per-document answer to "where did
	// the time go". On a degraded abort it covers the stages that ran.
	Stages []StageTiming
	// LexiconEpoch and LexiconVersion identify the lexicon snapshot this
	// run was scored against, pinned at admission: every sense of one
	// Result comes from exactly this snapshot even if a hot-swap
	// (Framework.Reload) landed mid-run. Epochs are monotone per framework;
	// the version is the label the swap carried (see LexiconInfo).
	LexiconEpoch   uint64
	LexiconVersion string
}

// New builds a Framework from the options.
func New(o Options) (*Framework, error) {
	net := o.Network
	if net == nil {
		net = wordnet.Default()
	}
	aw := ambiguity.Weights{Polysemy: o.AmbiguityWeights.Polysemy,
		Depth: o.AmbiguityWeights.Depth, Density: o.AmbiguityWeights.Density}
	if aw == (ambiguity.Weights{}) {
		aw = ambiguity.EqualWeights()
	}
	sw := simmeasure.Weights{Edge: o.SimilarityWeights.Edge,
		Node: o.SimilarityWeights.Node, Gloss: o.SimilarityWeights.Gloss}
	if sw == (simmeasure.Weights{}) {
		sw = simmeasure.EqualWeights()
	} else {
		sw = sw.Normalize()
	}
	radius := o.Radius
	if radius < 1 {
		radius = 1
	}
	cw, xw := o.ConceptWeight, o.ContextWeight
	if cw == 0 && xw == 0 {
		cw, xw = 0.5, 0.5
	}
	var vs sphere.VectorSim // nil: disambig's cosine, with cached norms
	switch strings.ToLower(o.VectorSimilarity) {
	case "", "cosine":
	case "jaccard":
		vs = sphere.Jaccard
	case "pearson":
		vs = sphere.Pearson
	default:
		return nil, fmt.Errorf("%w: VectorSimilarity %q (want cosine, jaccard, or pearson)",
			ErrUnknownOption, o.VectorSimilarity)
	}
	if o.Method > Combined {
		return nil, fmt.Errorf("%w: Method %d (want ConceptBased, ContextBased, or Combined)",
			ErrUnknownOption, o.Method)
	}
	inner, err := core.New(net, core.Options{
		IncludeContent: !o.StructureOnly,
		Ambiguity:      aw,
		Threshold:      o.Threshold,
		AutoThreshold:  o.AutoThreshold,
		AutoThresholdK: o.AutoThresholdK,
		Disambiguation: disambig.Options{
			Radius:        radius,
			Method:        o.Method,
			SimWeights:    sw,
			ConceptWeight: cw,
			ContextWeight: xw,
			VectorSim:     vs,
			FollowLinks:   o.FollowLinks,
			// Negative NodeWorkers means GOMAXPROCS; disambig.NewShared
			// owns that normalization.
			Workers: o.NodeWorkers,
			Degrade: o.Degrade,
		},
		OneSensePerDiscourse: o.OneSensePerDiscourse,
		MaxDepth:             enabledLimit(o.MaxDepth, xmltree.DefaultMaxDepth),
		MaxNodes:             enabledLimit(o.MaxNodes, xmltree.DefaultMaxNodes),
		// core forwards MaxTokenBytes to xmltree.ParseOptions, which shares
		// the public convention (0 = default, negative = disabled) directly.
		MaxTokenBytes: o.MaxTokenBytes,
		Admission:     o.Admission,
	})
	if err != nil {
		return nil, err
	}
	fw := &Framework{inner: inner, followLinks: o.FollowLinks}
	fw.limits.depth, fw.limits.nodes, fw.limits.tokenBytes = o.MaxDepth, o.MaxNodes, o.MaxTokenBytes
	return fw, nil
}

// enabledLimit maps the public limit convention (0 = default, negative =
// disabled) onto core's (positive = enabled, else disabled).
func enabledLimit(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

// Network returns the reference semantic network of the currently
// serving lexicon snapshot. Re-read it per use rather than caching the
// pointer across requests: a Reload may swap it at any time, and a
// cached pointer would silently keep answering from the retired lexicon.
func (f *Framework) Network() *Network { return f.inner.Network() }

// ReloadOptions tunes a staged lexicon reload (see Framework.Reload).
type ReloadOptions = core.ReloadOptions

// LexiconInfo identifies one lexicon snapshot: its monotone epoch,
// version label, content checksum, source, concept count, and load
// timing (see Framework.LexiconInfo).
type LexiconInfo = core.LexiconInfo

// LexiconStats couples the serving snapshot's identity with the
// framework's cumulative swap/rollback/canary counters and the reload
// latency histogram (see Framework.LexiconStats).
type LexiconStats = core.LexiconStats

// Reload hot-swaps the reference lexicon from a checksummed codec file
// (see WriteNetworkFile), with zero downtime: the candidate is loaded,
// structurally validated, and canaried against probe documents off the
// request path while the old snapshot keeps serving; only a candidate
// that passes every stage is swapped in atomically. In-flight runs
// finish on the snapshot they pinned at admission — no run ever mixes
// two lexicon versions — and the retired snapshot is freed when its
// last pinned run drains. On any failure the old lexicon keeps serving
// untouched and the error matches ErrReloadFailed (concretely a
// *ReloadError naming the failed stage). Reloads serialize: concurrent
// calls queue behind one another.
func (f *Framework) Reload(ctx context.Context, path string, opts ReloadOptions) (LexiconInfo, error) {
	return f.inner.Reload(ctx, path, opts)
}

// ReloadNetwork is Reload for an in-memory candidate network: same
// staged validation, canary, atomic swap, and rollback-by-default
// semantics, without the codec load. version labels the snapshot (a
// checksum-derived label when empty); source is a human-readable origin
// for observability ("inline" when empty).
func (f *Framework) ReloadNetwork(ctx context.Context, net *Network, version, source string, opts ReloadOptions) (LexiconInfo, error) {
	return f.inner.ReloadNetwork(ctx, net, version, source, opts)
}

// LexiconInfo identifies the currently serving lexicon snapshot.
func (f *Framework) LexiconInfo() LexiconInfo { return f.inner.LexiconInfo() }

// LexiconStats reports the serving snapshot's identity plus the
// cumulative reload counters: swaps completed, rollbacks (failed
// reloads), canary failures, retired snapshots still awaiting drain,
// and the reload-duration histogram.
func (f *Framework) LexiconStats() LexiconStats { return f.inner.LexiconStats() }

// WriteNetworkFile writes a semantic network to path in the versioned,
// checksummed codec format Reload consumes, crash-safely (temp file +
// fsync + atomic rename): a crashed or interrupted write never leaves a
// half-written lexicon at path. version labels the snapshot; empty
// derives a checksum-based label. The returned FileInfo carries the
// content checksum to pass as ReloadOptions.ExpectedChecksum.
func WriteNetworkFile(path string, net *Network, version string) (NetworkFileInfo, error) {
	return semnet.WriteFile(path, net, version)
}

// ReadNetworkFile loads a semantic network from a checksummed codec
// file, verifying the footer checksum: truncated, corrupted, or
// trailing-garbage files are rejected with an error matching
// ErrMalformedInput.
func ReadNetworkFile(path string) (*Network, NetworkFileInfo, error) {
	return semnet.ReadFile(path)
}

// NetworkFileInfo is the identity a checksummed lexicon file declares:
// content checksum, version label, and concept count.
type NetworkFileInfo = semnet.FileInfo

// Disambiguate parses an XML document from r and runs the full pipeline:
// linguistic pre-processing, (optional) hyperlink resolution,
// ambiguity-based node selection, sphere context construction, and
// semantic disambiguation.
func (f *Framework) Disambiguate(r io.Reader) (*Result, error) {
	return f.DisambiguateContext(context.Background(), r)
}

// DisambiguateContext is Disambiguate under a context: cancellation or
// deadline expiry aborts the pipeline at its next per-node check and
// returns an error matching ErrCanceled. Resource-guard violations return
// a *LimitError, malformed documents an error matching ErrMalformedInput,
// and a pipeline panic is isolated and returned as a *PanicError instead
// of crashing the caller.
func (f *Framework) DisambiguateContext(ctx context.Context, r io.Reader) (res *Result, err error) {
	defer recoverToError(&res, &err)
	if cerr := ctx.Err(); cerr != nil {
		// Don't parse on behalf of a dead caller — unless the ladder is on
		// and the context merely ran out of time, in which case the
		// pipeline finishes the document at reduced quality.
		if !(f.inner.Options().Disambiguation.Degrade.Enabled && errors.Is(cerr, context.DeadlineExceeded)) {
			return nil, xsdferrors.Canceled(cerr)
		}
	}
	t, err := f.ParseTree(r)
	if err != nil {
		return nil, err
	}
	var resolved, dangling int
	if f.followLinks {
		// Dangling references are tolerated: resolvable links still apply.
		ok, bad := t.ResolveLinksReport()
		resolved, dangling = ok, len(bad)
	}
	inner, err := f.inner.ProcessTreeContext(ctx, t)
	if inner == nil {
		return nil, err
	}
	out := fromCore(inner)
	out.LinksResolved, out.LinksDangling = resolved, dangling
	// A degraded abort (errors.Is(err, ErrDegraded)) keeps the partial
	// result alongside the error; every other error leaves it nil above.
	return out, err
}

// ParseTree parses an XML document into a Tree under the framework's
// content mode and resource limits, without disambiguating it — the
// building block for batch callers that parse up front and call
// DisambiguateBatch later.
func (f *Framework) ParseTree(r io.Reader) (*Tree, error) {
	return xmltree.Parse(r, xmltree.ParseOptions{
		IncludeContent: f.inner.Options().IncludeContent,
		Tokenize:       lingproc.Tokenize,
		MaxDepth:       f.limits.depth,
		MaxNodes:       f.limits.nodes,
		MaxTokenBytes:  f.limits.tokenBytes,
	})
}

// DisambiguateString is Disambiguate over an in-memory document.
func (f *Framework) DisambiguateString(doc string) (*Result, error) {
	return f.Disambiguate(strings.NewReader(doc))
}

// DisambiguateTree runs the pipeline on an already-parsed tree in place.
func (f *Framework) DisambiguateTree(t *Tree) (*Result, error) {
	return f.DisambiguateTreeContext(context.Background(), t)
}

// DisambiguateTreeContext is DisambiguateTree with the fault-tolerance
// semantics of DisambiguateContext (cancellation, resource guards, panic
// isolation, admission control, graceful degradation). When the run is
// canceled mid-degradation-ladder the partial Result is returned alongside
// the *DegradedError.
func (f *Framework) DisambiguateTreeContext(ctx context.Context, t *Tree) (res *Result, err error) {
	defer recoverToError(&res, &err)
	inner, err := f.inner.ProcessTreeContext(ctx, t)
	if inner == nil {
		return nil, err
	}
	return fromCore(inner), err
}

// BatchOptions tunes a DisambiguateBatchContext run.
type BatchOptions struct {
	// Workers is the worker-goroutine count; <= 0 selects GOMAXPROCS
	// (normalized by core.EffectiveWorkers, the same rule every worker
	// pool in the stack uses).
	Workers int
	// DocTimeout, when positive, bounds each document's processing time.
	// A document exceeding it fails with ErrCanceled (wrapping
	// context.DeadlineExceeded) without affecting the others — unless
	// Options.Degrade is enabled, in which case the document steps down
	// the degradation ladder and succeeds with the achieved level in
	// Result.Degraded.
	DocTimeout time.Duration
}

// DisambiguateBatch runs the pipeline over a batch of already-parsed trees
// concurrently (workers <= 0 selects GOMAXPROCS). It is
// DisambiguateBatchContext with a background context and no per-document
// deadline.
func (f *Framework) DisambiguateBatch(trees []*Tree, workers int) ([]*Result, error) {
	return f.DisambiguateBatchContext(context.Background(), trees, BatchOptions{Workers: workers})
}

// DisambiguateBatchContext runs the pipeline over a batch of trees with
// per-document fault isolation. Results are in input order; a slot is nil
// exactly when that document failed — except for documents canceled
// mid-degradation-ladder, whose partial Result stays in its slot alongside
// the *DegradedError entry. When any document fails the returned error is
// a *BatchError indexed by document, so one poisoned document (a panic,
// boxed as *PanicError), one oversized document (*LimitError), one
// rejected arrival (*OverloadError), or one per-document timeout never
// discards the rest of the batch; BatchError.Failed lists hard failures
// and BatchError.Degraded the degraded-partial documents. Cancelling ctx
// aborts the whole run promptly with ErrCanceled entries for the
// unfinished documents.
func (f *Framework) DisambiguateBatchContext(ctx context.Context, trees []*Tree, opts BatchOptions) ([]*Result, error) {
	inner, err := f.inner.ProcessTreesContext(ctx, trees, opts.Workers, opts.DocTimeout)
	out := make([]*Result, len(inner))
	for i, r := range inner {
		if r != nil {
			out[i] = fromCore(r)
		}
	}
	return out, err
}

func fromCore(r *core.Result) *Result {
	return &Result{
		Tree:           r.Tree,
		Targets:        r.Targets,
		Assigned:       r.Assigned,
		Threshold:      r.Threshold,
		Degraded:       r.Degraded,
		NodesAtLevel:   r.NodesAtLevel,
		Unscored:       r.Unscored,
		Stages:         r.Stages,
		LexiconEpoch:   r.LexiconEpoch,
		LexiconVersion: r.LexiconVersion,
	}
}

// recoverToError converts a panic escaping the pipeline into a returned
// *PanicError so one poisoned document cannot take down a serving process.
func recoverToError(res **Result, err *error) {
	if v := recover(); v != nil {
		*res = nil
		*err = &PanicError{Doc: -1, Value: v, Stack: debug.Stack()}
	}
}

// Candidate is one scored sense alternative for a node.
type Candidate struct {
	// Sense is the concept identifier ("movie.n.01", or "a+b" for compound
	// labels).
	Sense string
	// Score is the disambiguation score in [0, 1].
	Score float64
	// Gloss is the concept definition (first concept for compounds).
	Gloss string
}

// Candidates returns the full scored ranking of sense alternatives for a
// node of a previously disambiguated tree, best first — the evidence behind
// Node.Sense, for explanation UIs and confidence thresholds. Nil when the
// node's label is unknown to the network. Scoring reuses the framework's
// shared similarity/vector cache, so explaining a node of a processed
// document hits warm memos instead of recomputing the semantic measures.
func (f *Framework) Candidates(n *Node) []Candidate {
	dis := f.inner.NewDisambiguator()
	senses := dis.Candidates(n)
	if senses == nil {
		return nil
	}
	// Read glosses through the disambiguator's own cache, not through a
	// second Framework.Network() load: a concurrent Reload between the two
	// reads would pair one snapshot's scores with another's glosses.
	net := dis.Cache().Network()
	out := make([]Candidate, len(senses))
	for i, s := range senses {
		c := Candidate{Sense: s.ID(), Score: s.Score}
		if concept := net.Concept(s.Concepts[0]); concept != nil {
			c.Gloss = concept.Gloss
		}
		out[i] = c
	}
	return out
}

// ExplainSimilarity returns the taxonomic path connecting two concepts
// (through their lowest common subsumer), or nil when they share no
// ancestor — a human-readable account of why the edge-based measure
// considers them related.
func (f *Framework) ExplainSimilarity(a, b ConceptID) []ConceptID {
	path, ok := f.inner.Network().PathBetween(a, b)
	if !ok {
		return nil
	}
	return path
}

// CacheStats is a snapshot of the framework's shared memoization
// counters (per-word similarities and semantic-network sphere vectors).
type CacheStats = disambig.CacheStats

// GateStats reports the admission gate's occupancy and wait statistics —
// the serving layer derives Retry-After hints for shed requests from
// AvgWait. ok is false when Options.Admission is disabled.
func (f *Framework) GateStats() (stats GateStats, ok bool) { return f.inner.GateStats() }

// StageStats reports the cumulative per-stage pipeline counters — calls,
// errors, items, total duration — one entry per declared stage in
// execution order, accumulated across every document the framework has
// processed. The serving layer surfaces them in /statusz; cmd/xsdf prints
// them under -stages.
func (f *Framework) StageStats() []StageStats { return f.inner.StageStats() }

// StageLatency pairs a stage name with its latency distribution: the
// histogram behind StageStats' cumulative totals, in seconds (see
// Framework.StageLatencies).
type StageLatency = core.StageLatency

// HistogramSnapshot is a point-in-time histogram view with cumulative
// bucket counts, as exported on GET /metricsz.
type HistogramSnapshot = metrics.HistogramSnapshot

// StageLatencies reports the per-stage latency histograms, one entry per
// declared stage in execution order — the distributions the serving
// layer exports as xsdf_stage_duration_seconds on GET /metricsz.
func (f *Framework) StageLatencies() []StageLatency { return f.inner.StageLatencies() }

// GateWaitLatencies reports the admission gate's wait-time histogram
// (seconds): every wait a document spent blocked on the gate, admitted or
// shed. ok is false when Options.Admission is disabled.
func (f *Framework) GateWaitLatencies() (hist HistogramSnapshot, ok bool) {
	return f.inner.GateWaitLatencies()
}

// CacheStats reports the shared cache's hit/miss counters — an
// observability hook for serving deployments (cache effectiveness is the
// difference between cold and warm batch throughput) and for tests
// asserting that repeated vocabulary is actually shared.
func (f *Framework) CacheStats() CacheStats { return f.inner.CacheStats() }

// DefaultNetwork returns the embedded mini-WordNet semantic network.
func DefaultNetwork() *Network { return wordnet.Default() }
