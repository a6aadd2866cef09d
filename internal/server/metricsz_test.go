package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	xsdf "repro"
	"repro/internal/metrics"
)

// scrapeMetrics fetches /metricsz and parses it with the strict
// exposition parser (which itself validates histogram invariants:
// ascending le bounds, monotone cumulative counts, +Inf == _count).
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]*metrics.Family {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metricsContentType)
	}
	fams, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return fams
}

// drain reads a response body to its end and closes it.
func drain(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// counterValue returns the single sample of an unlabeled counter/gauge.
func counterValue(t *testing.T, fams map[string]*metrics.Family, name string) float64 {
	t.Helper()
	fam, ok := fams[name]
	if !ok {
		t.Fatalf("family %s missing", name)
	}
	if len(fam.Samples) != 1 {
		t.Fatalf("family %s has %d samples, want 1", name, len(fam.Samples))
	}
	return fam.Samples[0].Value
}

// TestMetricszGolden drives real traffic through every endpoint — unary,
// batch, a resumed stream — then asserts the exposition is parseable,
// histogram-valid, and reflects the traffic in the counters.
func TestMetricszGolden(t *testing.T) {
	s := newTestServer(t, xsdf.Options{
		Admission: xsdf.AdmissionOptions{MaxDocs: 4, MaxWait: 50 * time.Millisecond},
	}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unary + malformed (a 400 for the status-code family) + batch.
	postJSON(t, ts, "/v1/disambiguate", DisambiguateRequest{Document: testDoc}).Body.Close()
	postJSON(t, ts, "/v1/disambiguate", DisambiguateRequest{Document: "<unclosed"}).Body.Close()
	postJSON(t, ts, "/v1/batch", BatchRequest{Documents: []string{testDoc, testDoc}}).Body.Close()

	// A stream that resumes from cursor 1: two documents sent, one line
	// delivered, resume counter incremented.
	stream := `{"resume_from":1}` + "\n" +
		fmt.Sprintf(`{"document":%q}`, testDoc) + "\n" +
		fmt.Sprintf(`{"document":%q}`, testDoc) + "\n"
	resp, err := http.Post(ts.URL+"/v1/stream", NDJSONContentType, strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	// Read each stream to its end before scraping: closing it early cuts
	// the lines still in flight, and the handler counts lines (and the
	// request) only as it writes them and returns.
	drain(t, resp)

	// A subtree-mode stream: three subtrees, the middle one guard-tripped
	// by a tight per-subtree byte budget (emitted=2, failed=1, tripped=1).
	subtreeDoc := `<r><a>kelly</a><b>` + strings.Repeat("x", 120) + `</b><c>network</c></r>`
	subtreeStream := `{"subtree":true,"max_subtree_bytes":40}` + "\n" +
		fmt.Sprintf(`{"document":%q}`, subtreeDoc) + "\n"
	resp, err = http.Post(ts.URL+"/v1/stream", NDJSONContentType, strings.NewReader(subtreeStream))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)

	fams := scrapeMetrics(t, ts)

	// Stage latency histograms carry the traffic: the guard stage ran for
	// every successfully parsed document.
	sl, ok := fams["xsdf_stage_duration_seconds"]
	if !ok {
		t.Fatal("xsdf_stage_duration_seconds missing")
	}
	var guardCount float64
	for _, smp := range sl.Samples {
		if strings.HasSuffix(smp.Name, "_count") && smp.Labels["stage"] == xsdf.StageGuard {
			guardCount = smp.Value
		}
	}
	if guardCount == 0 {
		t.Error("guard stage histogram count is zero after traffic")
	}

	if got := counterValue(t, fams, "xsdf_http_requests_total"); got < 4 {
		t.Errorf("xsdf_http_requests_total = %v, want >= 4", got)
	}
	codes := map[string]bool{}
	for _, smp := range fams["xsdf_http_responses_total"].Samples {
		codes[smp.Labels["code"]] = true
	}
	if !codes["200"] || !codes["400"] {
		t.Errorf("response codes seen = %v, want 200 and 400", codes)
	}

	// Quality: every OK document above counted a ladder rung.
	var quality float64
	for _, smp := range fams["xsdf_response_quality_total"].Samples {
		quality += smp.Value
	}
	if quality < 4 { // 1 unary + 2 batch + 1 stream line
		t.Errorf("summed xsdf_response_quality_total = %v, want >= 4", quality)
	}

	// Gate (admission enabled above) and breaker families exist.
	if got := counterValue(t, fams, "xsdf_gate_admitted_total"); got == 0 {
		t.Error("xsdf_gate_admitted_total is zero after traffic")
	}
	states := map[string]bool{}
	for _, smp := range fams["xsdf_breaker_state"].Samples {
		states[smp.Labels["route"]] = true
	}
	for _, route := range []string{"disambiguate", "batch", "stream"} {
		if !states[route] {
			t.Errorf("xsdf_breaker_state missing route %q", route)
		}
	}

	// Stream lifecycle: one delivered document line (the resumed stream's
	// second doc) plus three subtree lines, and one resume.
	if got := counterValue(t, fams, "xsdf_stream_documents_delivered_total"); got != 4 {
		t.Errorf("xsdf_stream_documents_delivered_total = %v, want 4", got)
	}
	if got := counterValue(t, fams, "xsdf_stream_resumes_total"); got != 1 {
		t.Errorf("xsdf_stream_resumes_total = %v, want 1", got)
	}

	// Subtree mode: two subtrees delivered results, one tripped the
	// per-subtree byte budget, and only scanned (emitted) subtrees feed
	// the size histogram.
	if got := counterValue(t, fams, "xsdf_stream_subtrees_emitted_total"); got != 2 {
		t.Errorf("xsdf_stream_subtrees_emitted_total = %v, want 2", got)
	}
	if got := counterValue(t, fams, "xsdf_stream_subtrees_failed_total"); got != 1 {
		t.Errorf("xsdf_stream_subtrees_failed_total = %v, want 1", got)
	}
	if got := counterValue(t, fams, "xsdf_stream_subtrees_guard_tripped_total"); got != 1 {
		t.Errorf("xsdf_stream_subtrees_guard_tripped_total = %v, want 1", got)
	}
	sb, ok := fams["xsdf_stream_subtree_bytes"]
	if !ok {
		t.Fatal("xsdf_stream_subtree_bytes missing")
	}
	for _, smp := range sb.Samples {
		if strings.HasSuffix(smp.Name, "_count") && smp.Value != 2 {
			t.Errorf("xsdf_stream_subtree_bytes count = %v, want 2", smp.Value)
		}
	}
}

// TestMetricszConcurrentScrapes hammers /metricsz and /statusz while
// traffic is in flight — the data-race check for every counter the
// exposition reads (run under -race in CI).
func TestMetricszConcurrentScrapes(t *testing.T) {
	s := newTestServer(t, xsdf.Options{
		Admission: xsdf.AdmissionOptions{MaxDocs: 2, MaxWait: 10 * time.Millisecond},
	}, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				postJSON(t, ts, "/v1/disambiguate", DisambiguateRequest{Document: testDoc}).Body.Close()
			}
		}()
	}
	for _, path := range []string{"/metricsz", "/statusz", "/metricsz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()

	// After the dust settles the exposition must still be valid.
	scrapeMetrics(t, ts)
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// (the server logs from handler goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestTracing: a client-supplied X-Request-Id is echoed on the
// response and stamped on the completion log line together with the
// pipeline's per-stage timings; a request without one gets a generated
// ID.
func TestRequestTracing(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := newTestServer(t, xsdf.Options{}, Config{Logger: logger})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/disambiguate",
		strings.NewReader(fmt.Sprintf(`{"document":%q}`, testDoc)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "trace-abc-123" {
		t.Fatalf("%s echo = %q, want trace-abc-123", RequestIDHeader, got)
	}

	out := logs.String()
	if !strings.Contains(out, "request_id=trace-abc-123") {
		t.Errorf("completion log line missing request_id: %s", out)
	}
	if !strings.Contains(out, "stages=") || !strings.Contains(out, xsdf.StageGuard+"=") {
		t.Errorf("completion log line missing stage timings: %s", out)
	}
	if !strings.Contains(out, "quality=full") {
		t.Errorf("completion log line missing quality: %s", out)
	}

	// No client ID: the server generates a 16-hex one.
	resp2 := postJSON(t, ts, "/v1/disambiguate", DisambiguateRequest{Document: testDoc})
	resp2.Body.Close()
	gen := resp2.Header.Get(RequestIDHeader)
	if len(gen) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", gen)
	}

	// An unusable ID (oversized here; control bytes never survive
	// net/http) is replaced with a generated one, not echoed.
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/disambiguate",
		strings.NewReader(fmt.Sprintf(`{"document":%q}`, testDoc)))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set(RequestIDHeader, strings.Repeat("x", 200))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get(RequestIDHeader); strings.Contains(got, "xxx") {
		t.Fatalf("oversized request id echoed back: %q", got)
	}
	if got := sanitizeRequestID("evil\x01id"); got != "" {
		t.Fatalf("sanitizeRequestID kept a control byte: %q", got)
	}
}
