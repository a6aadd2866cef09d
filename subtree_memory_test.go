package xsdf_test

// Bounded-memory acceptance: the reason incremental mode exists. A
// synthetic document ten times larger than the process memory ceiling is
// generated on the fly (never materialized) and must stream to
// completion in subtree mode with the live heap pinned near its
// baseline, while whole-document mode on the same input dies early with
// a typed resource-guard error — a controlled refusal, never an OOM.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro"
	"repro/xsdferrors"
)

// syntheticXML streams a well-formed document of roughly target bytes:
// one <corpus> root with a flat run of <item> subtrees (~7 KiB each)
// whose text tokens are outside every lexicon, so the pipeline's cost is
// parsing and selection, not scoring. It is a pure generator — the
// document never exists in memory, which is the point of the test.
type syntheticXML struct {
	remaining  []byte
	produced   int64
	target     int64
	headerDone bool
	footerDone bool
	seq        int
}

func (g *syntheticXML) Read(p []byte) (int, error) {
	if len(g.remaining) == 0 {
		switch {
		case !g.headerDone:
			g.headerDone = true
			g.remaining = []byte("<corpus>")
		case g.produced < g.target:
			g.seq++
			var b strings.Builder
			fmt.Fprintf(&b, `<item id="%d">`, g.seq)
			word := strings.Repeat(fmt.Sprintf("zq%d", g.seq%97), 12)
			for j := 0; j < 150; j++ {
				b.WriteString(word)
				b.WriteByte(' ')
			}
			b.WriteString("</item>")
			g.remaining = []byte(b.String())
		case !g.footerDone:
			g.footerDone = true
			g.remaining = []byte("</corpus>")
		default:
			return 0, io.EOF
		}
	}
	n := copy(p, g.remaining)
	g.remaining = g.remaining[n:]
	g.produced += int64(n)
	return n, nil
}

func TestSubtreeModeBoundedMemory(t *testing.T) {
	// The process memory ceiling for this test, enforced by the runtime:
	// the GC is required to keep total memory near this soft limit, so an
	// implementation that buffers the document (or leaks subtrees) shows
	// up as runaway HeapAlloc readings below.
	const memLimit = int64(16 << 20)
	docBytes := 10 * memLimit
	if testing.Short() {
		docBytes = 2 * memLimit // same mechanics, smaller sweep
	}

	fw, err := xsdf.New(xsdf.Options{})
	if err != nil {
		t.Fatal(err)
	}

	prev := debug.SetMemoryLimit(memLimit)
	defer debug.SetMemoryLimit(prev)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var peak uint64
	subtrees := 0
	sum, err := fw.DisambiguateSubtrees(context.Background(), &syntheticXML{target: docBytes},
		xsdf.SubtreeOptions{}, func(r xsdf.SubtreeResult) error {
			if r.Err != nil {
				return fmt.Errorf("subtree %d failed: %w", r.Index, r.Err)
			}
			subtrees++
			if subtrees%100 == 0 {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("subtree mode failed on a %d MiB document: %v", docBytes>>20, err)
	}
	if sum.Subtrees != subtrees || subtrees == 0 {
		t.Fatalf("summary reports %d subtrees, callback saw %d", sum.Subtrees, subtrees)
	}
	// The live heap must stay bounded by the ceiling no matter how large
	// the document: peak is sampled at subtree boundaries, where one
	// subtree plus the shared caches is all that may be alive.
	if peak >= uint64(memLimit) {
		t.Errorf("peak HeapAlloc %.1f MiB reached the %d MiB ceiling — memory grows with the document",
			float64(peak)/(1<<20), memLimit>>20)
	}
	t.Logf("streamed %d MiB (%d subtrees, %dx the %d MiB ceiling): baseline %.1f MiB, peak %.1f MiB",
		docBytes>>20, subtrees, docBytes/memLimit, memLimit>>20,
		float64(baseline)/(1<<20), float64(peak)/(1<<20))

	// Whole-document mode on the same generator must refuse with a typed
	// guard error long before memory is at risk: the node guard trips at
	// a bounded prefix of the document, and the error names the limit.
	guarded, err := xsdf.New(xsdf.Options{MaxNodes: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	gen := &syntheticXML{target: docBytes}
	res, err := guarded.Disambiguate(gen)
	if res != nil || err == nil {
		t.Fatalf("whole-document mode accepted a %d MiB document (err=%v)", docBytes>>20, err)
	}
	var le *xsdferrors.LimitError
	if !errors.As(err, &le) || le.Limit != "nodes" {
		t.Fatalf("whole-document mode error = %v, want a typed nodes LimitError", err)
	}
	// The parser streams: the guard trips after the ~4.8 MB of items that
	// hold 100,000 nodes, not after reading the whole document.
	if gen.produced > 8<<20 {
		t.Errorf("whole-document mode read %.1f MiB before the nodes guard tripped, want <= 8 MiB",
			float64(gen.produced)/(1<<20))
	}
}
