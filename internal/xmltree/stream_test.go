package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/xsdferrors"
)

// endlessDoc streams "<r><b/><b/>…" without end and counts what it gave.
type endlessDoc struct{ read int64 }

func (e *endlessDoc) Read(p []byte) (int, error) {
	const head, item = "<r>", "<b/>"
	for i := range p {
		if pos := e.read + int64(i); pos < int64(len(head)) {
			p[i] = head[pos]
		} else {
			p[i] = item[(pos-int64(len(head)))%int64(len(item))]
		}
	}
	e.read += int64(len(p))
	return len(p), nil
}

// TestParseStreams: Parse reads its input as a stream, so the node guard
// trips after a bounded prefix of an endless document. A parser that read
// the whole input first would never return.
func TestParseStreams(t *testing.T) {
	doc := &endlessDoc{}
	_, err := Parse(doc, ParseOptions{IncludeContent: true, MaxNodes: 1000})
	var le *xsdferrors.LimitError
	if !errors.As(err, &le) || le.Limit != "nodes" || le.Max != 1000 || le.Actual != 1001 {
		t.Fatalf("error = %v, want the nodes LimitError at 1001", err)
	}
	if doc.read >= 1<<20 {
		t.Errorf("read %d bytes before the guard tripped, want < 1 MiB", doc.read)
	}
}

// TestParseConcurrent runs parses and subtree scans of the oracle inputs
// from several goroutines at once — the pooled scanner state must not
// leak between them — and checks every result against the reference.
func TestParseConcurrent(t *testing.T) {
	docs := append(append([]string(nil), edgeDocs...), generatedDocs()...)
	opts := ParseOptions{IncludeContent: true, MaxDepth: 8, MaxNodes: 64, MaxTokenBytes: 4096}
	type outcome struct {
		tree *Tree
		err  error
		subs []string
	}
	scan := func(next func() (*Subtree, error)) []string {
		var out []string
		for {
			st, err := next()
			var se *SubtreeError
			switch {
			case err == nil:
				out = append(out, fmt.Sprintf("%d %v [%d,%d) %s", st.Index, st.Path, st.StartOffset, st.EndOffset, st.Tree.Dump()))
				continue
			case errors.As(err, &se) && !se.Fatal:
				out = append(out, se.Error())
				continue
			case errors.Is(err, xsdferrors.ErrLimitExceeded):
				return append(out, err.Error())
			case err == io.EOF:
				return append(out, "EOF")
			}
			return append(out, "malformed")
		}
	}
	want := make([]outcome, len(docs))
	for i, doc := range docs {
		tr, err := referenceParse(strings.NewReader(doc), opts)
		ref := newReferenceSubtreeScanner(strings.NewReader(doc), SubtreeOptions{ParseOptions: opts})
		want[i] = outcome{tr, err, scan(ref.Next)}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range docs {
				i := (k*(w+1) + w) % len(docs)
				tr, err := Parse(strings.NewReader(docs[i]), opts)
				if d := diffErrors(want[i].err, err); d != "" {
					t.Errorf("worker %d, doc %d: %s", w, i, d)
				} else if err == nil {
					if d := diffTrees(want[i].tree, tr); d != "" {
						t.Errorf("worker %d, doc %d: %s", w, i, d)
					}
				}
				sc := NewSubtreeScanner(strings.NewReader(docs[i]), SubtreeOptions{ParseOptions: opts})
				if got := scan(sc.Next); strings.Join(got, "\n") != strings.Join(want[i].subs, "\n") {
					t.Errorf("worker %d, doc %d: subtrees\n%v\nwant\n%v", w, i, got, want[i].subs)
				}
			}
		}(w)
	}
	wg.Wait()
}
