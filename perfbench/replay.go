package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	xsdf "repro"
	"repro/internal/ambiguity"
	"repro/internal/disambig"
	"repro/internal/semnet"
	"repro/internal/server"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
)

// replayEvery selects the documents the kernel replays run on: every
// replayEvery-th document of the corpus, a fixed sample so replay counts
// repeat across runs of one seed.
const replayEvery = 8

// replay runs the traced run's replays after the measured phase, so their
// time never enters the traced docs_per_s (the semnet replays ride with the
// probe reloads, see probeReload):
//   - core: every document through DisambiguateTreeContext, the unary call,
//     whose span minus its stages is the core overhead (for serve-unary
//     these results also give the stage metrics, at nanosecond rather than
//     wire microsecond resolution);
//   - sphere, disambig, simmeasure: the layer functions on the targets of
//     the sampled documents, through a replay-owned disambig.Cache in the
//     workload's warm or cold state;
//   - server (library workloads only): every document through the server
//     handler in memory.
func (b *bench) replay(fw *xsdf.Framework, warm, serve bool) error {
	var sample []*xsdf.Tree
	for i, doc := range b.in.docs {
		t0 := time.Now()
		t, err := fw.ParseTree(strings.NewReader(doc))
		parse := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay: parsing document %d: %w", i, err)
		}
		id := b.tr.open("replay.xsdf.DisambiguateTreeContext", 0, i)
		t0 = time.Now()
		res, err := fw.DisambiguateTreeContext(context.Background(), t)
		d := time.Since(t0)
		b.tr.close(id, 1)
		if err != nil || digest(res.Tree) != b.in.ref[i].digest {
			b.layer.replayFailed++
			continue
		}
		b.tr.stages(id, i, res.Stages)
		for _, st := range res.Stages {
			d -= st.Duration
		}
		b.layer.overhead += d
		b.layer.overheadDocs++
		if serve {
			b.layer.addResult(res, parse)
		}
		if i%replayEvery == 0 {
			sample = append(sample, res.Tree)
		}
	}

	// Warm: the serving network and a replay cache filled by one untimed
	// sweep. Cold: a freshly read network (empty LCS memo) and an empty
	// cache, timed on its first sweep.
	net := fw.Network()
	if !warm {
		var err error
		if net, _, err = xsdf.ReadNetworkFile(b.in.lexPath); err != nil {
			return err
		}
	}
	cache := disambig.NewCache(net, simmeasure.EqualWeights())
	if warm {
		b.kernels(sample, net, cache, false)
	}
	b.kernels(sample, net, cache, true)

	if !serve {
		return b.serverReplay(fw)
	}
	return nil
}

// kernelSink keeps the replayed kernels' results live.
var kernelSink float64

// kernels replays the sphere context build, the concept-vector cache,
// merge-join cosine and the similarity measure (cached and direct) on
// every target of the sampled trees. record=false only fills the cache.
func (b *bench) kernels(trees []*xsdf.Tree, net *semnet.Network, cache *disambig.Cache, record bool) {
	const radius = 2
	var (
		sph       sphere.Scratch
		vs        sphere.VecScratch
		cands     []semnet.DenseID
		ctxSenses []semnet.DenseID
		vecs      []sphere.Vector
	)
	m := cache.Measure()
	tokens := func(n *xsdf.Node) []string {
		if len(n.Tokens) == 0 {
			return []string{n.Label}
		}
		if len(n.Tokens) > 2 {
			return n.Tokens[:2]
		}
		return n.Tokens
	}
	for di, t := range trees {
		doc := di * replayEvery
		start := b.tr.now()
		var ctxD, cvD, cosD, simD, compD time.Duration
		var targets, members, cvN, cosN, simN int
		for _, x := range ambiguity.Select(t, net, ambiguity.EqualWeights(), 0) {
			t0 := time.Now()
			ms := sphere.SphereInto(x, radius, false, &sph)
			vec := sphere.VectorFromMembersInto(ms, radius, net, &vs, nil)
			ctxD += time.Since(t0)
			targets++
			members += len(ms)

			cands = cands[:0]
			for _, tok := range tokens(x) {
				cands = append(cands, net.SensesDense(tok)...)
			}
			ctxSenses = ctxSenses[:0]
			for _, mb := range ms {
				if mb.Node == x {
					continue
				}
				for _, tok := range tokens(mb.Node) {
					ctxSenses = append(ctxSenses, net.SensesDense(tok)...)
				}
			}

			vecs = vecs[:0]
			t0 = time.Now()
			for _, c := range cands {
				vecs = append(vecs, cache.ConceptVectorDense(c, radius))
			}
			cvD += time.Since(t0)
			cvN += len(cands)

			t0 = time.Now()
			for _, v := range vecs {
				kernelSink += sphere.Cosine(vec, v)
			}
			cosD += time.Since(t0)
			cosN += len(vecs)

			t0 = time.Now()
			for _, c := range cands {
				for _, s := range ctxSenses {
					kernelSink += m.SimDense(c, s)
				}
			}
			simD += time.Since(t0)
			simN += len(cands) * len(ctxSenses)

			t0 = time.Now()
			for _, c := range cands {
				for _, s := range ctxSenses {
					kernelSink += m.SimDirectDense(c, s)
				}
			}
			compD += time.Since(t0)
		}
		if !record {
			continue
		}
		l := &b.layer
		l.ctxTime += ctxD
		l.ctxTargets += targets
		l.members += members
		l.cvTime += cvD
		l.cvCalls += cvN
		l.cosTime += cosD
		l.cosCalls += cosN
		l.simTime += simD
		l.compTime += compD
		l.simCalls += simN
		b.tr.record("replay.sphere.context", 0, doc, start, ctxD, targets, false)
		b.tr.record("replay.disambig.ConceptVectorDense", 0, doc, start, cvD, cvN, false)
		b.tr.record("replay.sphere.Cosine", 0, doc, start, cosD, cosN, false)
		b.tr.record("replay.simmeasure.SimDense", 0, doc, start, simD, simN, false)
		b.tr.record("replay.simmeasure.SimDirectDense", 0, doc, start, compD, simN, false)
	}
}

// serverReplay sends every document through the server's handler in
// memory, for the server.* metrics of the library workloads.
func (b *bench) serverReplay(fw *xsdf.Framework) error {
	srv, err := server.New(server.Config{Framework: fw, Logger: jsonDiscardLogger()})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var res server.Result
	for i, body := range b.in.bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/disambiguate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		id := b.tr.open("replay.server.Handler", 0, i)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		b.tr.close(id, 1)
		if !b.checkServed(i, rec.Code, rec.Body.Bytes(), &res) {
			b.layer.srvFailed++
			continue
		}
		b.tr.wireStages(id, i, res.Stages)
		b.layer.addServed(i, d, &res, len(body), rec.Body.Len())
	}
	return nil
}
