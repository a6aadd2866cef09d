// Command xsdf-benchjson converts `go test -bench` text output (stdin)
// into a stable JSON snapshot (stdout), so benchmark results can be
// committed and diffed across PRs:
//
//	go test -run - -bench BenchmarkPipelineBatch -benchmem . | xsdf-benchjson > BENCH_pipeline.json
//
// Only result lines are kept; the surrounding chatter (goos/goarch, PASS,
// timing) is folded into the metadata header.
//
// With -check it becomes a regression gate instead: the fresh run on
// stdin is compared against a committed baseline snapshot, and the
// process exits non-zero when any gated benchmark's ns/op regressed by
// more than -max-regress (allocs/op is held to the same bound — an
// allocation regression is a latency regression waiting for a slower
// allocator). -bench takes a comma-separated list; every row is checked
// and reported before the verdict:
//
//	go test -run - -bench BenchmarkPipelineBatch -benchmem . | \
//	    xsdf-benchjson -check BENCH_pipeline.json \
//	    -bench BenchmarkPipelineBatch/shared-cache,BenchmarkPipelineBatch/cold-cache
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the committed JSON schema.
type Snapshot struct {
	Goos    string        `json:"goos,omitempty"`
	Goarch  string        `json:"goarch,omitempty"`
	Pkg     string        `json:"pkg,omitempty"`
	CPU     string        `json:"cpu,omitempty"`
	Results []BenchResult `json:"results"`
}

func main() {
	var (
		check      = flag.String("check", "", "baseline snapshot to compare against; exits 1 on regression")
		benchNames = flag.String("bench", "BenchmarkPipelineBatch/shared-cache", "comma-separated benchmarks gated by -check")
		maxRegress = flag.Float64("max-regress", 0.15, "allowed fractional ns/op (and allocs/op) regression for -check")
	)
	flag.Parse()

	snap, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsdf-benchjson: %v\n", err)
		os.Exit(1)
	}

	if *check != "" {
		if err := checkRegression(snap, *check, strings.Split(*benchNames, ","), *maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "xsdf-benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintf(os.Stderr, "xsdf-benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchOutput folds a `go test -bench` text stream into a Snapshot.
func parseBenchOutput(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseBenchLine(line); ok {
				snap.Results = append(snap.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return snap, fmt.Errorf("reading stdin: %v", err)
	}
	if len(snap.Results) == 0 {
		return snap, fmt.Errorf("no benchmark result lines on stdin")
	}
	snap.Results = mergeRepeats(snap.Results)
	return snap, nil
}

// mergeRepeats folds `go test -count N` repetitions of one benchmark into
// a single entry holding the fastest run — the standard noise-robust
// statistic for regression gating (the minimum is the run least disturbed
// by scheduler and cache interference). Iterations are summed so the
// entry still records the total measurement effort.
func mergeRepeats(results []BenchResult) []BenchResult {
	merged := results[:0]
	byName := make(map[string]int, len(results))
	for _, r := range results {
		i, seen := byName[r.Name]
		if !seen {
			byName[r.Name] = len(merged)
			merged = append(merged, r)
			continue
		}
		best := &merged[i]
		best.Iterations += r.Iterations
		if r.NsPerOp < best.NsPerOp {
			best.NsPerOp = r.NsPerOp
		}
		if r.BytesPerOp < best.BytesPerOp {
			best.BytesPerOp = r.BytesPerOp
		}
		if r.AllocsPerOp < best.AllocsPerOp {
			best.AllocsPerOp = r.AllocsPerOp
		}
	}
	return merged
}

// checkRegression gates each named benchmark of the fresh run against the
// committed baseline, reporting every row before returning the joined
// failures. The comparison is by ratio, so it tolerates the baseline and
// the run coming from different GOMAXPROCS suffixes (names are matched
// with the -N procs suffix stripped) but NOT from different hardware
// classes — re-record the baseline when the bench host changes.
func checkRegression(snap Snapshot, baselinePath string, benchNames []string, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %v", baselinePath, err)
	}
	var errs []error
	for _, name := range benchNames {
		if err := checkRow(snap, base, baselinePath, strings.TrimSpace(name), maxRegress); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// checkRow compares one benchmark's ns/op and allocs/op with the baseline.
func checkRow(snap, base Snapshot, baselinePath, benchName string, maxRegress float64) error {
	if benchName == "" {
		return fmt.Errorf("empty benchmark name in -bench")
	}
	want, ok := findResult(base.Results, benchName)
	if !ok {
		return fmt.Errorf("baseline %s has no result for %s", baselinePath, benchName)
	}
	got, ok := findResult(snap.Results, benchName)
	if !ok {
		return fmt.Errorf("fresh run has no result for %s (did the benchmark rot?)", benchName)
	}

	nsRatio := got.NsPerOp / want.NsPerOp
	fmt.Printf("%s\n  ns/op     %14.0f -> %14.0f  (%+.1f%%)\n",
		benchName, want.NsPerOp, got.NsPerOp, (nsRatio-1)*100)
	var allocRatio float64
	if want.AllocsPerOp > 0 {
		allocRatio = float64(got.AllocsPerOp) / float64(want.AllocsPerOp)
		fmt.Printf("  allocs/op %14d -> %14d  (%+.1f%%)\n",
			want.AllocsPerOp, got.AllocsPerOp, (allocRatio-1)*100)
	}

	limit := 1 + maxRegress
	if nsRatio > limit {
		return fmt.Errorf("%s regressed: %.0f ns/op vs baseline %.0f (%.1f%% > %.0f%% allowed)",
			benchName, got.NsPerOp, want.NsPerOp, (nsRatio-1)*100, maxRegress*100)
	}
	if want.AllocsPerOp > 0 && allocRatio > limit {
		return fmt.Errorf("%s alloc-regressed: %d allocs/op vs baseline %d (%.1f%% > %.0f%% allowed)",
			benchName, got.AllocsPerOp, want.AllocsPerOp, (allocRatio-1)*100, maxRegress*100)
	}
	fmt.Printf("  within %.0f%% of baseline: ok\n", maxRegress*100)
	return nil
}

// findResult looks a benchmark up by name with the GOMAXPROCS suffix
// stripped from both sides, so `shared-cache` recorded at -procs=1 (no
// suffix) matches a fresh `shared-cache-4` line and vice versa.
func findResult(results []BenchResult, name string) (BenchResult, bool) {
	want := trimProcs(name)
	for _, r := range results {
		if trimProcs(r.Name) == want {
			return r, true
		}
	}
	return BenchResult{}, false
}

// trimProcs removes a trailing -N GOMAXPROCS suffix, if present.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if suffix := name[i+1:]; suffix != "" {
		for _, c := range suffix {
			if c < '0' || c > '9' {
				return name
			}
		}
		return name[:i]
	}
	return name
}

// parseBenchLine parses one `BenchmarkName-N  iters  12345 ns/op  ...`
// line; unparsable lines are skipped rather than fatal, so interleaved
// test log output cannot break the snapshot.
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !hasUnit(fields, "ns/op") {
		return BenchResult{}, false
	}
	r := BenchResult{Name: fields[0]}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		val := fields[i]
		switch fields[i+1] {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = v
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = v
			}
		}
	}
	return r, r.NsPerOp > 0
}

// hasUnit reports whether any field equals the unit token.
func hasUnit(fields []string, unit string) bool {
	for _, f := range fields {
		if f == unit {
			return true
		}
	}
	return false
}
