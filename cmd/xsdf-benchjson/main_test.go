package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline commits a two-row baseline snapshot to a temp file.
func writeBaseline(t *testing.T) string {
	t.Helper()
	base := Snapshot{Results: []BenchResult{
		{Name: "BenchmarkPipelineBatch/shared-cache-2", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkPipelineBatch/cold-cache-2", NsPerOp: 5000, AllocsPerOp: 1000},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckRegressionEveryRow: each row of a comma-separated -bench list
// is gated on ns/op and allocs/op, and a failure names every row that
// regressed.
func TestCheckRegressionEveryRow(t *testing.T) {
	path := writeBaseline(t)
	rows := strings.Split("BenchmarkPipelineBatch/shared-cache,BenchmarkPipelineBatch/cold-cache", ",")
	run := func(sharedNs, coldNs float64, coldAllocs int64) error {
		out, err := parseBenchOutput(strings.NewReader(fmt.Sprintf(
			"BenchmarkPipelineBatch/shared-cache-4 \t 100 \t %.0f ns/op \t 10 B/op \t 100 allocs/op\n"+
				"BenchmarkPipelineBatch/cold-cache-4 \t 20 \t %.0f ns/op \t 10 B/op \t %d allocs/op\n",
			sharedNs, coldNs, coldAllocs)))
		if err != nil {
			t.Fatal(err)
		}
		return checkRegression(out, path, rows, 0.15)
	}
	if err := run(1100, 5500, 1100); err != nil {
		t.Errorf("both rows within 15%%: %v", err)
	}
	err := run(1100, 6000, 1000)
	if err == nil || !strings.Contains(err.Error(), "cold-cache regressed") {
		t.Errorf("cold-cache ns/op +20%%: err = %v", err)
	}
	err = run(1200, 5000, 1200)
	if err == nil || !strings.Contains(err.Error(), "shared-cache regressed") ||
		!strings.Contains(err.Error(), "cold-cache alloc-regressed") {
		t.Errorf("shared-cache ns/op and cold-cache allocs/op +20%%: err = %v", err)
	}
	if err := checkRegression(Snapshot{}, path, []string{"BenchmarkPipelineBatch/missing"}, 0.15); err == nil {
		t.Error("a row missing from the baseline must fail")
	}
}
