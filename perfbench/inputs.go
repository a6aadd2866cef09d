package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	xsdf "repro"
	"repro/internal/corpus"
	"repro/internal/server"
)

// goldNode is one element or attribute node with a corpus gold sense,
// addressed by its preorder index in the parsed document.
type goldNode struct {
	index int
	sense string
}

// docRef is the reference outcome of one document: what every later pass
// and every served response must reproduce exactly.
type docRef struct {
	digest  uint64
	assigns []server.Assignment // nodes with a sense, in preorder
	sensed  []int               // preorder index of each assignment's node
}

// inputs is everything a run derives from its seed before set-up starts.
type inputs struct {
	docs    []string
	bodies  [][]byte // POST /v1/disambiguate bodies, one per document
	gold    [][]goldNode
	bytes   int
	lexPath string
	ref     []docRef
}

// benchOptions is the pipeline configuration of every workload: combined
// concept- and context-based scoring at sphere radius 2. serve adds what
// `xsdfd -d 2 -method combined` sets on top (the degradation ladder).
func benchOptions(net *xsdf.Network, serve bool) xsdf.Options {
	o := xsdf.Options{Network: net, Method: xsdf.Combined, Radius: 2}
	if serve {
		o.Degrade = xsdf.DegradeOptions{Enabled: true}
	}
	return o
}

// makeInputs generates the corpus for seed at the given scale, writes the
// embedded lexicon as a checksummed codec file into dir, aligns the
// corpus gold senses with the parsed documents, and records the reference
// outcome of every document from one pass of a fresh framework.
func makeInputs(seed int64, scale int, dir string, workers int, serve bool) (*inputs, error) {
	in := &inputs{lexPath: filepath.Join(dir, "lexicon.xsdf")}
	if _, err := xsdf.WriteNetworkFile(in.lexPath, xsdf.DefaultNetwork(), "perfbench"); err != nil {
		return nil, fmt.Errorf("writing lexicon: %w", err)
	}
	net, _, err := xsdf.ReadNetworkFile(in.lexPath)
	if err != nil {
		return nil, fmt.Errorf("reading lexicon: %w", err)
	}
	fw, err := xsdf.New(benchOptions(net, serve))
	if err != nil {
		return nil, err
	}
	gen := corpus.GenerateScaled(seed, scale)
	trees := make([]*xsdf.Tree, len(gen))
	for i, d := range gen {
		var buf bytes.Buffer
		if err := d.Tree.WriteXML(&buf, false); err != nil {
			return nil, fmt.Errorf("serializing %s: %w", d.Name, err)
		}
		doc := buf.String()
		body, err := json.Marshal(server.DisambiguateRequest{Document: doc})
		if err != nil {
			return nil, err
		}
		t, err := fw.ParseTree(strings.NewReader(doc))
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", d.Name, err)
		}
		g, err := alignGold(d.Tree, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		in.docs = append(in.docs, doc)
		in.bodies = append(in.bodies, body)
		in.gold = append(in.gold, g)
		in.bytes += len(doc)
		trees[i] = t
	}
	results, err := fw.DisambiguateBatchContext(context.Background(), trees, xsdf.BatchOptions{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	for _, r := range results {
		if r.Degraded != xsdf.DegradeNone {
			return nil, fmt.Errorf("reference pass degraded to %v", r.Degraded)
		}
		in.ref = append(in.ref, docRef{digest: digest(r.Tree), assigns: assignments(r.Tree), sensed: sensedNodes(r.Tree)})
	}
	return in, nil
}

// alignGold maps the generator's gold senses onto the parsed document. The
// serialized corpus tree parses back into the same preorder, which is
// checked node by node (tokens compare case-insensitively, as the
// tokenizer lower-cases them) so a misalignment fails the run instead of
// silently skewing f_gold.
func alignGold(src, parsed *xsdf.Tree) ([]goldNode, error) {
	a, b := src.Nodes(), parsed.Nodes()
	if len(a) != len(b) {
		return nil, fmt.Errorf("gold alignment: corpus tree has %d nodes, parsed document %d", len(a), len(b))
	}
	var out []goldNode
	for i := range a {
		if a[i].Kind != b[i].Kind || !strings.EqualFold(a[i].Raw, b[i].Raw) {
			return nil, fmt.Errorf("gold alignment: node %d is %v %q in the corpus, %v %q parsed",
				i, a[i].Kind, a[i].Raw, b[i].Kind, b[i].Raw)
		}
		if a[i].Kind != xsdf.TokenNode && a[i].Gold != "" {
			out = append(out, goldNode{index: i, sense: a[i].Gold})
		}
	}
	return out, nil
}

// digest hashes every assigned sense with its node index, score bits and
// ladder level (FNV-1a), the cached-vs-bypass golden contract in one word.
func digest(t *xsdf.Tree) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i, n := range t.Nodes() {
		if n.Sense == "" {
			continue
		}
		mix(uint64(i))
		for j := 0; j < len(n.Sense); j++ {
			h ^= uint64(n.Sense[j])
			h *= 1099511628211
		}
		mix(math.Float64bits(n.SenseScore))
		mix(uint64(n.Degraded))
	}
	return h
}

// assignments is the (label, sense, score) list the server answers for t,
// built the way the wire layer builds it.
func assignments(t *xsdf.Tree) []server.Assignment {
	var out []server.Assignment
	for _, n := range t.Nodes() {
		if n.Sense != "" {
			out = append(out, server.Assignment{Label: n.Label, Sense: n.Sense, Score: n.SenseScore})
		}
	}
	return out
}

func sensedNodes(t *xsdf.Tree) []int {
	var out []int
	for i, n := range t.Nodes() {
		if n.Sense != "" {
			out = append(out, i)
		}
	}
	return out
}

// goldCount accumulates the f_gold counts over element and attribute
// nodes.
type goldCount struct{ correct, assigned, total int }

func (g *goldCount) addTree(t *xsdf.Tree, gold []goldNode) {
	nodes := t.Nodes()
	for _, gn := range gold {
		g.total++
		if s := nodes[gn.index].Sense; s != "" {
			g.assigned++
			if s == gn.sense {
				g.correct++
			}
		}
	}
}

// addServed scores a served answer that matched the reference: the i-th
// assignment belongs to the i-th sensed node of the reference tree.
func (g *goldCount) addServed(sensed []int, got []server.Assignment, gold []goldNode) {
	byNode := make(map[int]string, len(got))
	for i, a := range got {
		byNode[sensed[i]] = a.Sense
	}
	for _, gn := range gold {
		g.total++
		if s, ok := byNode[gn.index]; ok {
			g.assigned++
			if s == gn.sense {
				g.correct++
			}
		}
	}
}

func (g goldCount) f() float64 {
	p := ratio(float64(g.correct), float64(g.assigned))
	r := ratio(float64(g.correct), float64(g.total))
	return ratio(2*p*r, p+r)
}

// sameAssignments reports whether a served answer equals the reference
// exactly: labels, senses and score bits.
func sameAssignments(got, want []server.Assignment) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Label != want[i].Label || got[i].Sense != want[i].Sense ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) || got[i].Quality != "" {
			return false
		}
	}
	return true
}
