// Lexicon lifecycle: the semantic network, its derived precomputations,
// and every similarity/vector cache keyed by its concept IDs live
// together in one immutable snapshot behind an atomic pointer. Runs pin
// the snapshot once at admission and score against it exclusively, so a
// hot-swap can never mix two lexicon versions inside one document; a
// retired snapshot frees only after its last pinned run drains.
//
// Reloads are staged — load → validate → canary → swap — and rollback is
// the default: any stage failure returns a typed *xsdferrors.ReloadError
// and leaves the serving snapshot untouched. Only a candidate that
// parsed, checksummed, validated, and disambiguated a probe corpus gets
// the pointer.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disambig"
	"repro/internal/faultinject"
	"repro/internal/lingproc"
	"repro/internal/metrics"
	"repro/internal/semnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// LexiconInfo identifies the lexicon snapshot a framework is serving (or
// a result was scored against): the /statusz identity block.
type LexiconInfo struct {
	// Epoch is the framework-local swap generation: 1 for the snapshot
	// the framework was constructed with, +1 per successful swap. Two
	// results with equal epochs were scored against the same snapshot.
	Epoch uint64
	// Version is the operator-facing label (the codec footer's version
	// field, or "sha-<prefix>" when none was recorded).
	Version string
	// Checksum is the hex SHA-256 identity of the lexicon bytes.
	Checksum string
	// Source is where the snapshot came from: "construction" or the
	// codec file path it was reloaded from.
	Source string
	// Concepts is the network size.
	Concepts int
	// LoadedAt and LoadTime record when the snapshot went live and how
	// long its staged load pipeline took.
	LoadedAt time.Time
	LoadTime time.Duration
}

// snapshot owns one lexicon version end to end: the immutable network
// (with its build-time ConceptIndex, ancestor lists, gloss tokens, and
// LCS memo) plus the similarity/vector caches and the memoizing
// linguistic pre-processor keyed by its vocabulary. Caches live here —
// never on the Framework — so a swapped-in network can never be scored
// against memos of its predecessor.
//
// The dense concept index travels inside the network: semnet.Build
// assigns every concept a stable int32 at build time, and all integer
// keys in the caches below (similarity pairs, vector keys) are dense ids
// of exactly this network. Pinning the snapshot therefore pins the index
// and the epoch together — a run can never look up epoch-N dense ids in
// epoch-M memos.
type snapshot struct {
	net   *semnet.Network
	cache *disambig.Cache
	proc  *lingproc.Processor
	info  LexiconInfo
	fw    *Framework

	// refs counts the pointer's own reference (1, dropped at retirement)
	// plus one per pinned run. retired flips when a newer snapshot takes
	// the pointer; the last unpin of a retired snapshot drains it.
	refs      atomic.Int64
	retired   atomic.Bool
	drainOnce sync.Once
}

// newSnapshot builds the snapshot for net with fresh caches. The caller
// assigns the epoch at swap time.
func (f *Framework) newSnapshot(net *semnet.Network, info LexiconInfo) *snapshot {
	s := &snapshot{
		net:   net,
		cache: disambig.NewCache(net, f.opts.Disambiguation.SimWeights),
		proc:  lingproc.NewProcessor(net),
		info:  info,
		fw:    f,
	}
	s.refs.Store(1) // the current-pointer reference
	return s
}

// pin takes a reference on the current snapshot for one run. The
// increment-then-recheck loop closes the swap race: if the pointer moved
// between the load and the increment, the reference may have landed on a
// snapshot whose drain already ran, so it is released and the pin
// retries on the new current snapshot.
func (f *Framework) pin() *snapshot {
	for {
		s := f.snap.Load()
		s.refs.Add(1)
		if f.snap.Load() == s {
			return s
		}
		s.unpin()
	}
}

// unpin releases one reference; the last release of a retired snapshot
// drains it.
func (s *snapshot) unpin() {
	if s.refs.Add(-1) == 0 && s.retired.Load() {
		s.drain()
	}
}

// retire marks the snapshot superseded and drops the pointer's own
// reference. In-flight pinned runs keep scoring against it; the gauge
// decrement happens when the last of them unpins.
func (s *snapshot) retire() {
	s.fw.retiredAwaiting.Add(1)
	s.retired.Store(true)
	s.unpin()
}

// drain is the end of the snapshot's life: all pins released after
// retirement. drainOnce guards the gauge against the pin-retry path
// resurrecting and re-dropping a dead snapshot.
func (s *snapshot) drain() {
	s.drainOnce.Do(func() {
		s.fw.retiredAwaiting.Add(-1)
	})
}

// ReloadOptions tunes one staged lexicon reload.
type ReloadOptions struct {
	// ExpectedChecksum, when non-empty, must equal the candidate file's
	// footer checksum or the load stage fails — the operator's guard
	// against swapping in a file that changed between upload and reload.
	ExpectedChecksum string
	// MinCanaryAssign is the minimum fraction of selected canary probe
	// targets that must receive a sense (0 selects the 0.5 default).
	// Probes are generated from the candidate's own lemmas, so a healthy
	// lexicon scores well above any sane threshold.
	MinCanaryAssign float64
}

// Reload runs the staged swap pipeline over a checksummed codec file:
//
//	load (ReadFile + checksum) → validate → canary → atomic swap
//
// On success the new snapshot is serving when Reload returns and the
// previous one retires (freeing once its last pinned run drains). On any
// stage failure the previous snapshot keeps serving untouched and the
// error is a *xsdferrors.ReloadError naming the stage — rollback is the
// default, swap is the exception. Reloads serialize; the data path never
// blocks on one.
func (f *Framework) Reload(ctx context.Context, path string, opts ReloadOptions) (LexiconInfo, error) {
	f.reloadMu.Lock()
	defer f.reloadMu.Unlock()
	start := time.Now()
	info, err := f.reloadLocked(ctx, path, opts, start)
	f.reloadHist.Observe(time.Since(start).Seconds())
	if err != nil {
		f.rollbacks.Add(1)
		return f.LexiconInfo(), err
	}
	f.swaps.Add(1)
	return info, nil
}

func (f *Framework) reloadLocked(ctx context.Context, path string, opts ReloadOptions, start time.Time) (LexiconInfo, error) {
	fail := func(stage string, cause error) (LexiconInfo, error) {
		return LexiconInfo{}, &xsdferrors.ReloadError{Stage: stage, Source: path, Cause: cause}
	}
	// Stage: load. Codec integrity is part of the read (checksum footer);
	// an operator-pinned checksum is compared on top.
	if err := faultinject.ReloadStage("load"); err != nil {
		return fail("load", err)
	}
	net, finfo, err := semnet.ReadFile(path)
	if err != nil {
		return fail("load", err)
	}
	if opts.ExpectedChecksum != "" && !strings.EqualFold(opts.ExpectedChecksum, finfo.Checksum) {
		return fail("load", fmt.Errorf("checksum mismatch: file is %s, caller expected %s", finfo.Checksum, opts.ExpectedChecksum))
	}
	info := LexiconInfo{
		Version:  finfo.Version,
		Checksum: finfo.Checksum,
		Source:   path,
		Concepts: net.Len(),
	}
	return f.admitCandidate(ctx, net, info, opts, start)
}

// ReloadNetwork is the in-memory variant of Reload for candidates that
// did not come from a codec file (tests, embedded upgrades): the same
// validate → canary → swap pipeline, same rollback semantics, same
// counters. source labels the candidate in errors and LexiconInfo.
func (f *Framework) ReloadNetwork(ctx context.Context, net *semnet.Network, version, source string, opts ReloadOptions) (LexiconInfo, error) {
	f.reloadMu.Lock()
	defer f.reloadMu.Unlock()
	start := time.Now()
	if source == "" {
		source = "inline"
	}
	if net == nil {
		f.reloadHist.Observe(time.Since(start).Seconds())
		f.rollbacks.Add(1)
		return f.LexiconInfo(), &xsdferrors.ReloadError{Stage: "load", Source: source, Cause: fmt.Errorf("nil candidate network")}
	}
	checksum := net.Checksum()
	if version == "" {
		version = semnet.VersionLabel(checksum)
	}
	info := LexiconInfo{Version: version, Checksum: checksum, Source: source, Concepts: net.Len()}
	li, err := f.admitCandidate(ctx, net, info, opts, start)
	f.reloadHist.Observe(time.Since(start).Seconds())
	if err != nil {
		f.rollbacks.Add(1)
		return f.LexiconInfo(), err
	}
	f.swaps.Add(1)
	return li, nil
}

// admitCandidate runs the post-load stages — structural validation,
// canary disambiguation, atomic swap — under the reload lock.
func (f *Framework) admitCandidate(ctx context.Context, net *semnet.Network, info LexiconInfo, opts ReloadOptions, start time.Time) (LexiconInfo, error) {
	fail := func(stage string, cause error) (LexiconInfo, error) {
		return LexiconInfo{}, &xsdferrors.ReloadError{Stage: stage, Source: info.Source, Cause: cause}
	}
	// Stage: validate. The same structural invariants Build guarantees,
	// re-checked because this network came from outside.
	if err := faultinject.ReloadStage("validate"); err != nil {
		return fail("validate", err)
	}
	if net.Len() == 0 {
		return fail("validate", fmt.Errorf("candidate network is empty"))
	}
	if err := net.Validate(); err != nil {
		return fail("validate", err)
	}
	// Stage: canary. The candidate snapshot — its own caches included —
	// disambiguates a probe corpus generated from its own lemmas through
	// the real pipeline before it is allowed to serve anyone.
	cand := f.newSnapshot(net, info)
	if err := faultinject.ReloadStage("canary"); err != nil {
		f.canaryFails.Add(1)
		return fail("canary", err)
	}
	if err := f.runCanary(ctx, cand, opts.MinCanaryAssign); err != nil {
		f.canaryFails.Add(1)
		return fail("canary", err)
	}
	// Stage: swap. Assign the epoch before publication so pinned readers
	// never see a zero epoch, then retire the predecessor.
	cand.info.LoadedAt = time.Now()
	cand.info.LoadTime = time.Since(start)
	cand.info.Epoch = f.epoch.Add(1)
	old := f.snap.Swap(cand)
	old.retire()
	return cand.info, nil
}

// defaultMinCanaryAssign is the assignment-rate floor of the canary
// stage: probes are the candidate's own vocabulary, so well under half
// of them resolving means the lexicon's sense lists or relations are
// broken even though the structure validated.
const defaultMinCanaryAssign = 0.5

// runCanary disambiguates the probe corpus against the candidate
// snapshot through the canary pipeline (identical stages, no admission,
// no stats accounting). Any hard error fails the canary; so does an
// assignment rate under min.
func (f *Framework) runCanary(ctx context.Context, cand *snapshot, min float64) error {
	if min <= 0 {
		min = defaultMinCanaryAssign
	}
	targets, assigned := 0, 0
	for i, doc := range canaryDocs(cand.net) {
		t, err := xmltree.Parse(strings.NewReader(doc), xmltree.ParseOptions{
			IncludeContent: f.opts.IncludeContent,
			Tokenize:       lingproc.Tokenize,
		})
		if err != nil {
			return fmt.Errorf("probe %d failed to parse: %w", i, err)
		}
		r := &run{fw: f, tree: t, snap: cand, canary: true, hooks: currentHooks()}
		_, err = f.canaryPipe.Run(ctx, r)
		if r.release != nil {
			r.release()
		}
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		targets += r.res.Targets
		assigned += r.res.Assigned
	}
	if targets > 0 && float64(assigned) < min*float64(targets) {
		return fmt.Errorf("canary divergence: %d of %d probe targets assigned, need %.0f%%", assigned, targets, min*100)
	}
	return nil
}

// canaryDocs generates the built-in probe corpus from the candidate's
// own vocabulary: small documents whose element labels and content are
// single-word lemmas of the network, polysemous ones first (they
// exercise actual scoring, not just lookup). Content-independent of any
// particular lexicon, so swapping to a disjoint vocabulary still
// canaries meaningfully.
func canaryDocs(net *semnet.Network) []string {
	const maxLemmas, perDoc = 24, 4
	var poly, mono []string
	for _, l := range net.Lemmas() {
		if !xmlNameSafe(l) {
			continue
		}
		if net.PolysemyOf(l) > 1 {
			poly = append(poly, l)
		} else {
			mono = append(mono, l)
		}
		if len(poly) >= maxLemmas {
			break
		}
	}
	picks := poly
	if len(picks) < maxLemmas {
		picks = append(picks, mono[:minInt(len(mono), maxLemmas-len(picks))]...)
	}
	var docs []string
	for len(picks) > 0 {
		n := minInt(perDoc, len(picks))
		var b strings.Builder
		b.WriteString("<probe>")
		for _, l := range picks[:n] {
			fmt.Fprintf(&b, "<%s>%s</%s>", l, l, l)
		}
		b.WriteString("</probe>")
		docs = append(docs, b.String())
		picks = picks[n:]
	}
	return docs
}

// xmlNameSafe reports whether the lemma can serve directly as an XML
// element name: a single lowercase ASCII word, digits allowed past the
// first character.
func xmlNameSafe(l string) bool {
	if l == "" || l[0] < 'a' || l[0] > 'z' {
		return false
	}
	for i := 1; i < len(l); i++ {
		c := l[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// LexiconInfo reports the identity of the snapshot currently serving.
func (f *Framework) LexiconInfo() LexiconInfo { return f.snap.Load().info }

// LexiconStats is the hot-swap subsystem's observability snapshot: the
// serving identity plus the lifetime swap/rollback/canary counters, the
// retirement backlog, and the reload-duration distribution.
type LexiconStats struct {
	Info                 LexiconInfo
	Swaps                uint64
	Rollbacks            uint64
	CanaryFailures       uint64
	RetiredAwaitingDrain int64
	ReloadLatency        metrics.HistogramSnapshot
}

// LexiconStats snapshots the hot-swap counters.
func (f *Framework) LexiconStats() LexiconStats {
	return LexiconStats{
		Info:                 f.LexiconInfo(),
		Swaps:                f.swaps.Load(),
		Rollbacks:            f.rollbacks.Load(),
		CanaryFailures:       f.canaryFails.Load(),
		RetiredAwaitingDrain: f.retiredAwaiting.Load(),
		ReloadLatency:        f.reloadHist.Snapshot(),
	}
}
