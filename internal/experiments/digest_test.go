//go:build amd64 && !amd64.v2

// The digest pins float bits, which depend on whether the compiler fuses
// multiply-adds: Go does on arm64 and on amd64 from GOAMD64=v3, not at the
// default v1. The file therefore builds on default amd64 only.

package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/disambig"
	"repro/internal/gold"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/xmltree"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/digest.txt from the current code")

const digestFile = "testdata/digest.txt"

// measureDigest is one consumer of the similarity measure the digest
// covers, with what it writes for each selected node of the runner.
type measureDigest struct {
	name string
	node func(h hash.Hash, n *xmltree.Node)
}

// measureDigests lists the consumers: the RPD and VSD baselines (Figure 9),
// the per-node candidate rankings under the three methods at radius 2
// (Figure 8 and the ablations read the same scores), and the annotator
// panel's ambiguity ratings (Table 2).
func measureDigests(r *Runner) []measureDigest {
	senseOf := func(node func(*xmltree.Node) (semnet.ConceptID, bool)) func(hash.Hash, *xmltree.Node) {
		return func(h hash.Hash, n *xmltree.Node) {
			s, ok := node(n)
			fmt.Fprintf(h, "%s %v\n", s, ok)
		}
	}
	ds := []measureDigest{
		{"rpd", senseOf(baseline.NewRPD(r.Network()).Node)},
		{"vsd", senseOf(baseline.NewVSD(r.Network()).Node)},
	}
	for _, m := range []disambig.Method{disambig.ConceptBased, disambig.ContextBased, disambig.Combined} {
		dis := disambig.New(r.Network(), disambig.Options{
			Radius:        2,
			Method:        m,
			SimWeights:    simmeasure.EqualWeights(),
			ConceptWeight: 0.5,
			ContextWeight: 0.5,
		})
		ds = append(ds, measureDigest{
			name: fmt.Sprintf("candidates/%s/radius=2", m),
			node: func(h hash.Hash, n *xmltree.Node) {
				for _, c := range dis.Candidates(n) {
					fmt.Fprintf(h, "%s=%.17g ", c.ID(), c.Score)
				}
				fmt.Fprintln(h)
			},
		})
	}
	ratings := map[*xmltree.Node]float64{}
	for i, d := range r.Docs() {
		for n, v := range r.panel.RateAmbiguity(r.Network(), d, r.Selected(i), gold.DefaultRatingModel()) {
			ratings[n] = v
		}
	}
	ds = append(ds, measureDigest{"gold/ratings", func(h hash.Hash, n *xmltree.Node) {
		fmt.Fprintf(h, "%.17g\n", ratings[n])
	}})
	return ds
}

// digestOf hashes one consumer's output over every selected node of the
// runner, each line prefixed with the document index and node label.
func digestOf(r *Runner, d measureDigest) string {
	h := sha256.New()
	for i := range r.Docs() {
		for _, n := range r.Selected(i) {
			fmt.Fprintf(h, "%d %d %s: ", i, n.Index, n.Label)
			d.node(h, n)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMeasureDigest is the cross-version contract on the similarity
// measure's users outside the pipeline, the companion of core's
// TestAssignmentDigest: each consumer's sha256 over the default runner's
// selected nodes must equal the one committed in testdata/digest.txt, so
// the Figure 8 and 9, Table 2 and ablation figures computed from them do
// not move. After checking that a change is intended, rewrite the file
// with
//
//	go test ./internal/experiments -run TestMeasureDigest -update
func TestMeasureDigest(t *testing.T) {
	r := runner(t)
	digests := measureDigests(r)
	want := map[string]string{}
	if !*updateDigest {
		f, err := os.Open(digestFile)
		if err != nil {
			t.Fatalf("%v (create it with -update)", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
				name, sum, _ := strings.Cut(line, " ")
				want[name] = sum
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(digests) {
			t.Errorf("%s holds %d digests, the test has %d consumers", digestFile, len(want), len(digests))
		}
	}
	var out strings.Builder
	out.WriteString("# sha256 of each similarity consumer's output over the default runner's selected nodes.\n")
	out.WriteString("# Rewrite only with: go test ./internal/experiments -run TestMeasureDigest -update\n")
	for _, d := range digests {
		got := digestOf(r, d)
		if !*updateDigest && got != want[d.name] {
			t.Errorf("%s: digest %s, committed %q", d.name, got, want[d.name])
		}
		fmt.Fprintf(&out, "%s %s\n", d.name, got)
	}
	if *updateDigest && !t.Failed() {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
