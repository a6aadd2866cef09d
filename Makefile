# Repro build/test/bench entry points. Everything here is plain go
# tooling; the Makefile only records the invocations so results are
# reproducible across sessions.

GO ?= go

.PHONY: build test race bench-snapshot bench-check load-smoke reload-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-snapshot re-records the committed performance baselines:
#   BENCH_pipeline.json — the batch pipeline benchmark, the parse layer
#   benchmark and the lexicon reload benchmark (gated by bench-check;
#   diff it across PRs to catch regressions).
#   BENCH_stream.json — the open-loop overload run (fixed 1000 req/s for
#   30s plus a streaming pass) against a freshly served daemon. The rate
#   is pinned rather than calibrated: since the integer-ID scoring core,
#   2x calibrated saturation exceeds what a single-host loopback HTTP
#   stack itself can carry, and the harness would report connection-level
#   losses the serving layer never saw. 1000 req/s sits above pipeline
#   saturation (sustained overload, the degradation ladder engages) but
#   within the wire's lossless envelope.
bench-snapshot:
	$(GO) build -o /tmp/xsdf-benchjson ./cmd/xsdf-benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkPipeline(Batch|Parse|Reload)' -benchmem -count 3 . | /tmp/xsdf-benchjson > BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"
	$(GO) build -o /tmp/xsdfd ./cmd/xsdfd
	$(GO) build -o /tmp/xsdf-loadgen ./cmd/xsdf-loadgen
	/tmp/xsdfd -addr 127.0.0.1:18082 & echo $$! > /tmp/xsdfd.pid; \
	sleep 1; \
	/tmp/xsdf-loadgen -url http://127.0.0.1:18082 -rate 1000 -duration 30s \
	    -stream -max-lost 0 -out BENCH_stream.json > /dev/null; \
	status=$$?; \
	kill $$(cat /tmp/xsdfd.pid) 2>/dev/null; \
	test $$status = 0 && echo "wrote BENCH_stream.json"; \
	exit $$status

# bench-check re-runs the gated pipeline benchmarks and fails when
# BenchmarkPipelineBatch/shared-cache (warm reprocess, concept-based),
# BenchmarkPipelineBatch/shared-cache-combined (warm reprocess under the
# combined method, so the concept-vector memo and the cosine run too),
# BenchmarkPipelineBatch/cold-cache (fresh caches: every similarity memo
# fills), BenchmarkPipelineParse (the parse layer alone) or
# BenchmarkPipelineReload (one lexicon hot-swap: load, validate, canary,
# swap) regresses more than 15% in ns/op (or allocs/op) against the
# committed
# BENCH_pipeline.json. CI runs this on every pull request; refresh the
# baseline with bench-snapshot when a change legitimately moves a number.
bench-check:
	$(GO) build -o /tmp/xsdf-benchjson ./cmd/xsdf-benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkPipeline(Batch|Parse|Reload)' -benchmem -count 3 . | \
	    /tmp/xsdf-benchjson -check BENCH_pipeline.json \
	    -bench BenchmarkPipelineBatch/shared-cache,BenchmarkPipelineBatch/shared-cache-combined,BenchmarkPipelineBatch/cold-cache,BenchmarkPipelineParse,BenchmarkPipelineReload -max-regress 0.15

# load-smoke is the CI-sized load check: build the daemon and the
# harness, serve on a local port, drive a short low-rate open-loop phase
# plus a streaming phase (whole-document, then subtree mode), and fail
# on any lost/untyped response.
load-smoke:
	$(GO) build -o /tmp/xsdfd ./cmd/xsdfd
	$(GO) build -o /tmp/xsdf-loadgen ./cmd/xsdf-loadgen
	/tmp/xsdfd -addr 127.0.0.1:18080 & echo $$! > /tmp/xsdfd.pid; \
	sleep 1; \
	/tmp/xsdf-loadgen -url http://127.0.0.1:18080 -rate 20 -duration 10s -stream -max-lost 0 -check-metrics && \
	/tmp/xsdf-loadgen -url http://127.0.0.1:18080 -rate 20 -duration 5s -subtree -max-lost 0; \
	status=$$?; \
	kill $$(cat /tmp/xsdfd.pid) 2>/dev/null; \
	exit $$status

# reload-smoke is the zero-downtime hot-swap check: serve a packed
# lexicon, drive the harness at 2x the load-smoke rate, land one good
# swap and one corrupt-candidate rollback mid-run, and assert zero lost
# documents, balanced swap/rollback counters, and no 5xx responses.
reload-smoke:
	$(GO) build -o /tmp/xsdfd ./cmd/xsdfd
	$(GO) build -o /tmp/xsdf-lexicon ./cmd/xsdf-lexicon
	$(GO) build -o /tmp/xsdf-loadgen ./cmd/xsdf-loadgen
	/tmp/xsdf-lexicon -export /tmp/reload-smoke.semnet -version local-1
	head -c $$(($$(stat -c %s /tmp/reload-smoke.semnet) / 2)) /tmp/reload-smoke.semnet > /tmp/reload-smoke-corrupt.semnet
	/tmp/xsdfd -addr 127.0.0.1:18081 -lexicon /tmp/reload-smoke.semnet & echo $$! > /tmp/xsdfd.pid; \
	sleep 1; \
	( sleep 3; curl -fsS -X POST http://127.0.0.1:18081/adminz/reload \
	    -H 'Content-Type: application/json' -d '{"path":"/tmp/reload-smoke.semnet"}'; \
	  sleep 3; curl -s -X POST http://127.0.0.1:18081/adminz/reload \
	    -H 'Content-Type: application/json' -d '{"path":"/tmp/reload-smoke-corrupt.semnet"}' ) & \
	/tmp/xsdf-loadgen -url http://127.0.0.1:18081 -rate 40 -duration 12s -stream -max-lost 0; \
	status=$$?; \
	curl -fsS http://127.0.0.1:18081/metricsz | grep -E '^xsdf_lexicon_(swaps|rollbacks)_total' || status=1; \
	kill $$(cat /tmp/xsdfd.pid) 2>/dev/null; \
	exit $$status
