package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeat runs the workload cfg.repeat times as child processes, one seed
// each (cfg.seed, cfg.seed+1, ...), and prints per metric the median, the
// quartiles (Python's statistics.quantiles, n=4), the interquartile spread
// and the (max-min) spread, both as shares of the median — the steadiness
// figures a benchmark bound must cover. It returns non-zero when any child
// run fails.
func repeat(cfg config, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < cfg.repeat; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		last := lastLine(out)
		var res result
		if jerr := json.Unmarshal([]byte(last), &res); err != nil || jerr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d) failed: %v %s\n", i, seed, err, last)
			status = 1
			continue
		}
		fmt.Printf("run %d seed %d: %s\n", i, seed, last)
		if wc := lineWithPrefix(out, "wall_clock: "); wc != "" {
			fmt.Printf("run %d seed %d wall clock: %s\n", i, seed, wc)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-38s %6s %14s %14s %14s %9s %9s\n", "metric", "runs", "q1", "median", "q3", "iqr/med", "rng/med")
	for _, k := range names {
		v := values[k]
		q1, q2, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Printf("%-38s %6d %14.6g %14.6g %14.6g %9.4f %9.4f %s\n", k, len(v), q1, q2, q3,
			ratio(q3-q1, math.Abs(q2)), ratio(hi-lo, math.Abs(q2)), units[k])
	}
	return status
}

func lineWithPrefix(out []byte, prefix string) string {
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, prefix) {
			return strings.TrimPrefix(l, prefix)
		}
	}
	return ""
}

func lastLine(out []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last
}
