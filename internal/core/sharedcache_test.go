package core

import (
	"sync"
	"testing"

	"repro/internal/disambig"
	"repro/internal/wordnet"
)

// TestFrameworkSharedAcrossGoroutines drives one Framework from many
// goroutines processing distinct documents concurrently — the batch-server
// usage pattern — and checks results match a sequential run on the same
// corpus. Under -race this pins down the concurrency safety of the shared
// similarity/vector cache the workers all memoize into.
func TestFrameworkSharedAcrossGoroutines(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := corpusTrees(t, 10)
	conc := corpusTrees(t, 10)

	ref, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range seq {
		if _, err := ref.ProcessTree(tr); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(conc))
	for i := range conc {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = fw.ProcessTree(conc[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	for i := range seq {
		for j := 0; j < seq[i].Len(); j++ {
			if seq[i].Node(j).Sense != conc[i].Node(j).Sense {
				t.Fatalf("doc %d node %d: sequential %q, concurrent %q",
					i, j, seq[i].Node(j).Sense, conc[i].Node(j).Sense)
			}
		}
	}
}

// TestCacheStatsWarmReprocessing checks the framework-level observability
// hook: reprocessing documents with repeated vocabulary must hit the
// shared cache, and the hit counters must say so.
func TestCacheStatsWarmReprocessing(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ProcessTrees(corpusTrees(t, 6), 3); err != nil {
		t.Fatal(err)
	}
	cold := fw.CacheStats()
	if cold.SimMisses == 0 {
		t.Fatal("first pass should miss the sim cache")
	}
	if _, err := fw.ProcessTrees(corpusTrees(t, 6), 3); err != nil {
		t.Fatal(err)
	}
	warm := fw.CacheStats()
	if warm.SimHits <= cold.SimHits {
		t.Error("reprocessing identical vocabulary should add sim-cache hits")
	}
	if warm.SimMisses != cold.SimMisses {
		t.Errorf("reprocessing identical documents should add no sim misses: %d -> %d",
			cold.SimMisses, warm.SimMisses)
	}
	t.Logf("cold %+v warm %+v", cold, warm)
}

// TestCacheStatsCountEveryRead: each run tallies its memo reads locally
// and adds them to the counters when it returns, so the counts do not
// depend on how the runs are spread over goroutines. One corpus is
// processed on three fresh frameworks (combined method, radius 2):
// serially, on four batch workers, and with three node workers per
// document. All three must count the same vector reads, and the batch run
// the same word-memo reads as the serial one. Node workers share one
// document's word matrix, and two of them can both read the memo for one
// empty cell, so the third run may count more word reads, never fewer.
func TestCacheStatsCountEveryRead(t *testing.T) {
	run := func(batchWorkers, nodeWorkers int) disambig.CacheStats {
		opts := DefaultOptions()
		opts.Disambiguation.Method = disambig.Combined
		opts.Disambiguation.Radius = 2
		opts.Disambiguation.Workers = nodeWorkers
		fw, err := New(wordnet.Default(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.ProcessTrees(corpusTrees(t, 6), batchWorkers); err != nil {
			t.Fatal(err)
		}
		return fw.CacheStats()
	}
	vec := func(s disambig.CacheStats) uint64 { return s.VectorHits + s.VectorMisses }
	sim := func(s disambig.CacheStats) uint64 { return s.SimHits + s.SimMisses }
	serial, batch, nodes := run(1, 0), run(4, 0), run(1, 3)
	t.Logf("serial %+v, batch %+v, node workers %+v", serial, batch, nodes)
	if vec(serial) == 0 || sim(serial) == 0 {
		t.Fatalf("serial run counted %d vector and %d word reads, want both > 0", vec(serial), sim(serial))
	}
	if vec(batch) != vec(serial) || vec(nodes) != vec(serial) {
		t.Errorf("vector reads: serial %d, batch workers %d, node workers %d; want all equal",
			vec(serial), vec(batch), vec(nodes))
	}
	if sim(batch) != sim(serial) {
		t.Errorf("word reads: serial %d, batch workers %d; want equal", sim(serial), sim(batch))
	}
	if sim(nodes) < sim(serial) {
		t.Errorf("word reads: node workers %d, fewer than the serial %d", sim(nodes), sim(serial))
	}
}
