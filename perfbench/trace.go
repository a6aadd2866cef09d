package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	xsdf "repro"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Derived spans are the pipeline stages a call reports in
// Result.Stages (or the wire stages of a response): only their durations
// are known, so they are laid back to back from their parent's start.
// Lanes > 1 marks a span whose children ran concurrently on that many
// workers (a batch call). Count is the number of calls an aggregated
// replay span covers.
type span struct {
	id, parent int32
	name       string
	doc        int32
	start, end int64 // ns since the tracer's epoch
	lanes      int32
	count      int32
	derived    bool
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its id (0 when t is nil).
func (t *tracer) open(name string, parent int32, doc int) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, doc: int32(doc), start: start, lanes: 1})
	return id
}

// close ends span id; lanes records how many workers its children ran on.
func (t *tracer) close(id int32, lanes int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end, s.lanes = end, int32(lanes)
	t.mu.Unlock()
}

// record adds a finished span of known start and duration.
func (t *tracer) record(name string, parent int32, doc int, start int64, d time.Duration, count int, derived bool) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, doc: int32(doc),
		start: start, end: start + int64(d), lanes: 1, count: int32(count), derived: derived})
	return id
}

// startOf returns the start of span id.
func (t *tracer) startOf(id int32) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].start
}

// stages records one run's stage timings as derived children of parent,
// back to back from the parent's start.
func (t *tracer) stages(parent int32, doc int, stages []xsdf.StageTiming) {
	if t == nil {
		return
	}
	at := t.startOf(parent)
	for _, st := range stages {
		t.record("stage."+st.Stage, parent, doc, at, st.Duration, 1, true)
		at += int64(st.Duration)
	}
}

// wireStages is stages for the microsecond stage list of a served answer.
func (t *tracer) wireStages(parent int32, doc int, stages []wireStage) {
	if t == nil {
		return
	}
	at := t.startOf(parent)
	for _, st := range stages {
		d := time.Duration(st.Micros) * time.Microsecond
		t.record("stage."+st.Stage, parent, doc, at, d, 1, true)
		at += int64(d)
	}
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total and self time. Self time is
// a span's duration minus the time its children cover; children that ran
// on several lanes cover their summed duration divided by the lane count.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.parent > 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			rows[s.name] = r
		}
		d := s.end - s.start
		covered := childSum[s.id] / int64(max(s.lanes, 1))
		if covered > d {
			covered = d
		}
		r.Spans++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-covered) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write stores the run record, the self-time table and every span as
// JSON in path. Spans are arrays: [id, parent, name, doc, start_ns,
// end_ns, lanes, count, derived].
func (t *tracer) write(path string, record any, self []selfRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.encode(w, record, self); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encode(w io.Writer, record any, self []selfRow) error {
	head, err := json.Marshal(map[string]any{"record": record, "self_time": self})
	if err != nil {
		return err
	}
	// Splice the span array into the object without building it in memory.
	if _, err := w.Write(head[:len(head)-1]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, `,"spans":[`); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		sep := ","
		if i == 0 {
			sep = ""
		}
		name, _ := json.Marshal(s.name)
		if _, err := fmt.Fprintf(w, "%s\n[%d,%d,%s,%d,%d,%d,%d,%d,%t]", sep,
			s.id, s.parent, name, s.doc, s.start, s.end, s.lanes, s.count, s.derived); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "]}\n")
	return err
}
