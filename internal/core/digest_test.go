//go:build amd64 && !amd64.v2

// The digest pins float bits, which depend on whether the compiler fuses
// multiply-adds: Go does on arm64 and on amd64 from GOAMD64=v3, not at the
// default v1. The file therefore builds on default amd64 only.

package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/disambig"
	"repro/internal/semnet"
	"repro/internal/sphere"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/digest.txt from the current code")

const digestFile = "testdata/digest.txt"

// digestConfig is one configuration of the assignment digest: the corpus
// seed (0 for the above-cap document), whether synthetic links are added,
// and the options the framework runs with.
type digestConfig struct {
	name  string
	seed  int64
	links bool
	opts  Options
}

// digestConfigs lists the configurations the digest covers: corpus seeds
// 1, 7 and 42 at scale 2 under the three methods, radius 1–3 and links
// off/on; per seed, the combined method at radius 2 with three node
// workers, the Jaccard and Pearson vector measures, ladder watermarks
// 60/150 and Thresh_Amb 0.12 and 0.5; and one document above the word
// matrix's cap under each method.
func digestConfigs() []digestConfig {
	methods := []disambig.Method{disambig.ConceptBased, disambig.ContextBased, disambig.Combined}
	with := func(method disambig.Method, radius int, links bool) Options {
		o := DefaultOptions()
		o.Disambiguation.Method = method
		o.Disambiguation.Radius = radius
		o.Disambiguation.FollowLinks = links
		return o
	}
	var cs []digestConfig
	for _, seed := range []int64{1, 7, 42} {
		for _, m := range methods {
			for radius := 1; radius <= 3; radius++ {
				for _, links := range []bool{false, true} {
					cs = append(cs, digestConfig{
						name: fmt.Sprintf("seed=%d/%s/radius=%d/links=%v", seed, m, radius, links),
						seed: seed, links: links, opts: with(m, radius, links),
					})
				}
			}
		}
		extras := []struct {
			name string
			set  func(*Options)
		}{
			{"workers=3", func(o *Options) { o.Disambiguation.Workers = 3 }},
			{"jaccard", func(o *Options) { o.Disambiguation.VectorSim = sphere.Jaccard }},
			{"pearson", func(o *Options) { o.Disambiguation.VectorSim = sphere.Pearson }},
			{"ladder=60,150", func(o *Options) {
				o.Disambiguation.Degrade = disambig.Degradation{Enabled: true, ConceptOnlyAfter: 60, FirstSenseAfter: 150}
			}},
			{"threshold=0.12", func(o *Options) { o.Threshold = 0.12 }},
			{"threshold=0.5", func(o *Options) { o.Threshold = 0.5 }},
		}
		for _, e := range extras {
			o := with(disambig.Combined, 2, false)
			e.set(&o)
			cs = append(cs, digestConfig{name: fmt.Sprintf("seed=%d/combined/radius=2/%s", seed, e.name), seed: seed, opts: o})
		}
	}
	for _, m := range methods {
		cs = append(cs, digestConfig{name: fmt.Sprintf("above-cap/%s/radius=2", m), opts: with(m, 2, false)})
	}
	return cs
}

// digestDocs returns a configuration's documents, fresh (annotation is in
// place): the scale-2 corpus of its seed, or the above-cap document.
func digestDocs(c digestConfig) []corpus.Doc {
	if c.seed == 0 {
		return []corpus.Doc{{Name: "above-cap", Tree: aboveCapTree(wordnet.Default())}}
	}
	docs := corpus.GenerateScaled(c.seed, 2)
	if c.links {
		for _, d := range docs {
			addSyntheticLinks(d.Tree)
		}
	}
	return docs
}

// aboveCapTree names every single-word polysemous lemma of net, eight to
// a section, so its document word matrix is far above the matrix cap.
func aboveCapTree(net *semnet.Network) *xmltree.Tree {
	root := &xmltree.Node{Raw: "catalog", Kind: xmltree.Element}
	var section *xmltree.Node
	words := 0
	for _, l := range net.Lemmas() {
		if strings.Contains(l, " ") || len(net.Senses(l)) < 2 {
			continue
		}
		if words%8 == 0 {
			section = &xmltree.Node{Raw: "section", Kind: xmltree.Element}
			root.AddChild(section)
		}
		section.AddChild(&xmltree.Node{Raw: l, Kind: xmltree.Token})
		words++
	}
	return xmltree.New(root)
}

// addSyntheticLinks joins every fifth element to one further along the
// preorder, both ways, as ResolveLinks would: the corpus declares no
// ID/IDREF attributes, so resolving its links would add none.
func addSyntheticLinks(tr *xmltree.Tree) {
	var elems []*xmltree.Node
	for _, n := range tr.Nodes() {
		if n.Kind == xmltree.Element {
			elems = append(elems, n)
		}
	}
	for i := 0; i+3 < len(elems); i += 5 {
		a, b := elems[i], elems[(i*7+3)%len(elems)]
		if a != b {
			a.Links = append(a.Links, b)
			b.Links = append(b.Links, a)
		}
	}
}

// digestOf runs one configuration on a fresh framework and hashes every
// document's name and senseFingerprint, in corpus order. It also returns
// the number of assigned nodes.
func digestOf(t *testing.T, c digestConfig) (string, int) {
	fw, err := New(wordnet.Default(), c.opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	assigned := 0
	for _, d := range digestDocs(c) {
		res, err := fw.ProcessTree(d.Tree)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		assigned += res.Assigned
		fmt.Fprintf(h, "%s\n%s", d.Name, senseFingerprint(d.Tree))
	}
	return hex.EncodeToString(h.Sum(nil)), assigned
}

// TestAssignmentDigest is the cross-version contract on every assignment:
// each configuration's sha256 over label, sense and %.17g score of every
// node must equal the one committed in testdata/digest.txt. A change that
// moves a digest changes what the pipeline assigns; after checking that
// this is intended, rewrite the file with
//
//	go test ./internal/core -run TestAssignmentDigest -update
func TestAssignmentDigest(t *testing.T) {
	configs := digestConfigs()
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
		if len(want) != len(configs) {
			t.Errorf("%s holds %d digests, the test has %d configurations", digestFile, len(want), len(configs))
		}
	}
	got := make([]string, len(configs))
	assigned := make([]int, len(configs))
	t.Run("configs", func(t *testing.T) {
		for i, c := range configs {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				got[i], assigned[i] = digestOf(t, c)
				if !*updateDigest && got[i] != want[c.name] {
					t.Errorf("digest %s, committed %q", got[i], want[c.name])
				}
			})
		}
	})
	var out strings.Builder
	out.WriteString("# sha256 of every node's label, sense and %.17g score per configuration.\n")
	out.WriteString("# Rewrite only with: go test ./internal/core -run TestAssignmentDigest -update\n")
	total := 0
	for i, c := range configs {
		total += assigned[i]
		fmt.Fprintf(&out, "%s %s\n", c.name, got[i])
	}
	t.Logf("%d configurations, %d assignments", len(configs), total)
	if *updateDigest && !t.Failed() {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
