package semnet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The paper's framework is knowledge-base agnostic (§3.1: "any other
// knowledge base can be used based on the application scenario, e.g., ODP
// ... or FOAF"). This file implements a plain-text interchange format so
// users can load their own semantic networks without recompiling:
//
//	# comment
//	c <id> <freq> <lemma>[|<lemma>...]	<gloss>
//	r <from> <relation> <to>
//
// Concept lines come first; relation lines may reference any declared
// concept. Fields of the concept line are TAB separated so lemmas and
// glosses can contain spaces; lemmas are separated by '|'. Relations are
// written once per undirected pair using the canonical direction
// (hypernym, holonym, related); inverses are re-materialized on load.

// Save writes the network in the text interchange format. Networks
// round-trip through Save/Load up to edge ordering.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# semnet v1: %d concepts\n", n.Len())
	for d, id := range n.order {
		c := &n.concepts[d]
		fmt.Fprintf(bw, "c\t%s\t%g\t%s\t%s\n", id, c.Freq, strings.Join(c.Lemmas, "|"), c.Gloss)
	}
	for d, id := range n.order {
		for _, e := range n.edges[d] {
			// Emit each undirected pair once, in canonical direction.
			switch e.Rel {
			case Hypernym, Holonym:
				fmt.Fprintf(bw, "r\t%s\t%s\t%s\n", id, e.Rel, e.To)
			case Related:
				if id < e.To {
					fmt.Fprintf(bw, "r\t%s\t%s\t%s\n", id, e.Rel, e.To)
				}
			}
		}
	}
	return bw.Flush()
}

// maxLineBytes is the longest line Load accepts, newline excluded, plus
// one: the 4 MiB token buffer of the bufio.Scanner the codec was first
// read with, whose error a longer line still reports.
const maxLineBytes = 4 * 1024 * 1024

// Load parses a network from the text interchange format.
func Load(r io.Reader) (*Network, error) {
	data, readErr := io.ReadAll(r)
	b, err := parse(string(data))
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, fmt.Errorf("semnet: load: %w", readErr)
	}
	return b.Build()
}

// parse reads the records of content into a Builder sized from a count of
// its record lines. Fields are substrings of content: lines are cut at
// each newline, one trailing carriage return is dropped, and fields are
// cut at tabs in place, with the line numbers and error texts of the line
// scanner and per-line split the codec was first read with.
func parse(content string) (*Builder, error) {
	b := newBuilder(strings.Count(content, "\nc\t")+1, strings.Count(content, "\nr\t")+1)
	lineNo := 0
	for rest := content; rest != ""; {
		lineNo++
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(line) >= maxLineBytes {
			return nil, fmt.Errorf("semnet: load: %w", bufio.ErrTooLong)
		}
		line = strings.TrimSuffix(line, "\r")
		if line == "" || line[0] == '#' {
			continue
		}
		nf := strings.Count(line, "\t") + 1
		kind, fields, _ := strings.Cut(line, "\t")
		switch kind {
		case "c":
			if nf != 5 {
				return nil, fmt.Errorf("semnet: line %d: concept needs 5 tab-separated fields, got %d", lineNo, nf)
			}
			id, fields, _ := strings.Cut(fields, "\t")
			freqText, fields, _ := strings.Cut(fields, "\t")
			lemmas, gloss, _ := strings.Cut(fields, "\t")
			freq, err := strconv.ParseFloat(freqText, 64)
			if err != nil {
				return nil, fmt.Errorf("semnet: line %d: bad frequency %q", lineNo, freqText)
			}
			if b.admit(ConceptID(id), 1) {
				for {
					l, more, found := strings.Cut(lemmas, "|")
					b.addLemma(l)
					if !found {
						break
					}
					lemmas = more
				}
				b.commit(ConceptID(id), gloss, freq)
			}
		case "r":
			if nf != 4 {
				return nil, fmt.Errorf("semnet: line %d: relation needs 4 fields, got %d", lineNo, nf)
			}
			from, fields, _ := strings.Cut(fields, "\t")
			relText, to, _ := strings.Cut(fields, "\t")
			rel, err := parseRelation(relText)
			if err != nil {
				return nil, fmt.Errorf("semnet: line %d: %v", lineNo, err)
			}
			b.AddEdge(ConceptID(from), rel, ConceptID(to))
		default:
			return nil, fmt.Errorf("semnet: line %d: unknown record %q", lineNo, kind)
		}
	}
	return b, nil
}

func parseRelation(s string) (Relation, error) {
	switch s {
	case "hypernym":
		return Hypernym, nil
	case "hyponym":
		return Hyponym, nil
	case "meronym":
		return Meronym, nil
	case "holonym":
		return Holonym, nil
	case "related":
		return Related, nil
	default:
		return 0, fmt.Errorf("unknown relation %q", s)
	}
}
