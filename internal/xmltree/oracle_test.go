package xmltree

// Differential oracles for the streaming scanner and the shared element
// builder:
//
//   - token level: the scanner against encoding/xml.Decoder.Token — the
//     same start, end, character-data and other tokens (local names,
//     attribute names and values in document order, character-data
//     bytes), the same InputOffset before and after each, and the same
//     outcome at the same token index;
//   - tree level: Parse and SubtreeScanner against referenceParse and
//     referenceSubtreeScanner, the parent implementation kept verbatim in
//     reference_test.go — the same trees, LimitError fields, subtree
//     indexes, paths, offsets, guard trips, Fatal flags and counters.
//
// Every check runs with the input fed whole, one byte per Read, and in
// random reads of 1–64 bytes, so token boundaries cross window refills.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/xsdferrors"
)

// readMode feeds a document to a parser.
type readMode struct {
	name string
	open func(doc []byte) io.Reader
}

func readModes(seed int64) []readMode {
	return []readMode{
		{"whole", func(doc []byte) io.Reader { return bytes.NewReader(doc) }},
		{"one-byte", func(doc []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(doc)) }},
		{"chunks", func(doc []byte) io.Reader { return &chunkReader{doc: doc, rng: rand.New(rand.NewSource(seed))} }},
	}
}

// chunkReader returns its document in reads of 1–64 bytes.
type chunkReader struct {
	doc []byte
	rng *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.doc) == 0 {
		return 0, io.EOF
	}
	n := min(1+c.rng.Intn(64), len(p), len(c.doc))
	copy(p, c.doc[:n])
	c.doc = c.doc[n:]
	return n, nil
}

// decoderTrace renders encoding/xml's token stream, one line per token
// with its input offsets, ending in the outcome; scannerTrace renders the
// scanner's the same way.
func decoderTrace(r io.Reader) []string {
	dec := xml.NewDecoder(r)
	var out []string
	for {
		before := dec.InputOffset()
		tok, err := dec.Token()
		after := dec.InputOffset()
		if err == io.EOF {
			return append(out, "EOF")
		}
		if err != nil {
			return append(out, "error")
		}
		var line string
		switch tk := tok.(type) {
		case xml.StartElement:
			line = "start " + tk.Name.Local
			for _, a := range tk.Attr {
				line += fmt.Sprintf(" %s=%q", a.Name.Local, a.Value)
			}
		case xml.EndElement:
			line = "end " + tk.Name.Local
		case xml.CharData:
			line = fmt.Sprintf("text %q", []byte(tk))
		default:
			line = "other"
		}
		out = append(out, fmt.Sprintf("%d-%d %s", before, after, line))
	}
}

func scannerTrace(r io.Reader) []string {
	var s scanner
	s.reset(r)
	var out, open []string
	for {
		before := s.offset()
		kind, err := s.next()
		after := s.offset()
		if err != nil {
			return append(out, "error")
		}
		var line string
		switch kind {
		case tokEOF:
			return append(out, "EOF")
		case tokStart:
			line = "start " + string(s.tag.local)
			for _, a := range s.tag.attrs {
				line += fmt.Sprintf(" %s=%q", a.local, a.value)
			}
			open = append(open, string(s.tag.local))
		case tokEnd:
			line = "end " + open[len(open)-1]
			open = open[:len(open)-1]
		case tokText:
			line = fmt.Sprintf("text %q", s.data)
		default:
			line = "other"
		}
		out = append(out, fmt.Sprintf("%d-%d %s", before, after, line))
	}
}

func checkTokens(t testing.TB, doc []byte, seed int64) {
	t.Helper()
	for _, m := range readModes(seed) {
		want, got := decoderTrace(m.open(doc)), scannerTrace(m.open(doc))
		if d := diffLines(want, got); d != "" {
			t.Fatalf("%s: scanner disagrees with encoding/xml on %q:\n%s", m.name, doc, d)
		}
	}
}

func diffLines(want, got []string) string {
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("token %d:\n  want %s\n  got  %s", i, w, g)
		}
	}
	return ""
}

// diffTrees compares two trees node by node: kind, raw text, label,
// index, depth, parent and child order, and the tree maxima.
func diffTrees(want, got *Tree) string {
	if want.Len() != got.Len() {
		return fmt.Sprintf("Len %d, want %d", got.Len(), want.Len())
	}
	if want.MaxDepth() != got.MaxDepth() || want.MaxFanOut() != got.MaxFanOut() || want.MaxDensity() != got.MaxDensity() {
		return fmt.Sprintf("maxima depth/fan/density %d/%d/%d, want %d/%d/%d",
			got.MaxDepth(), got.MaxFanOut(), got.MaxDensity(), want.MaxDepth(), want.MaxFanOut(), want.MaxDensity())
	}
	if got.Root != got.Node(0) || want.Root != want.Node(0) {
		return "root is not preorder node 0"
	}
	for i := range want.Len() {
		w, g := want.Node(i), got.Node(i)
		if w.Kind != g.Kind || w.Raw != g.Raw || w.Label != g.Label || w.Index != g.Index || w.Depth != g.Depth ||
			len(w.Tokens) != len(g.Tokens) || len(w.Links) != len(g.Links) || w.Sense != g.Sense {
			return fmt.Sprintf("node %d = %v %q, want %v %q", i, g, g.Raw, w, w.Raw)
		}
		if (w.Parent == nil) != (g.Parent == nil) || w.Parent != nil && w.Parent.Index != g.Parent.Index {
			return fmt.Sprintf("node %d has a different parent", i)
		}
		if len(w.Children) != len(g.Children) {
			return fmt.Sprintf("node %d has %d children, want %d", i, len(g.Children), len(w.Children))
		}
		for j := range w.Children {
			if w.Children[j].Index != g.Children[j].Index || got.Node(g.Children[j].Index) != g.Children[j] {
				return fmt.Sprintf("node %d child %d differs", i, j)
			}
		}
	}
	return ""
}

// diffErrors compares two outcomes: both nil, both the same guard trip
// (Limit, Max, Actual), or both malformed. Reader errors must stay
// reachable through either.
func diffErrors(want, got error) string {
	if (want == nil) != (got == nil) {
		return fmt.Sprintf("error %v, want %v", got, want)
	}
	if want == nil || want == io.EOF || got == io.EOF {
		if want != got {
			return fmt.Sprintf("error %v, want %v", got, want)
		}
		return ""
	}
	var wl, gl *xsdferrors.LimitError
	wLimit, gLimit := errors.As(want, &wl), errors.As(got, &gl)
	switch {
	case wLimit != gLimit:
		return fmt.Sprintf("error %v, want %v", got, want)
	case wLimit:
		if *wl != *gl {
			return fmt.Sprintf("limit %+v, want %+v", *gl, *wl)
		}
	case !errors.Is(got, xsdferrors.ErrMalformedInput) || !errors.Is(want, xsdferrors.ErrMalformedInput):
		return fmt.Sprintf("error %v, want malformed like %v", got, want)
	}
	return ""
}

// oracleConfigs are the guard and content settings every document is
// checked under.
func oracleConfigs(tokenize func(string) []string) []ParseOptions {
	var out []ParseOptions
	for _, include := range []bool{true, false} {
		out = append(out,
			ParseOptions{IncludeContent: include, Tokenize: tokenize},
			ParseOptions{IncludeContent: include, Tokenize: tokenize, MaxDepth: 8, MaxNodes: 32, MaxTokenBytes: 24})
	}
	return out
}

func checkParse(t testing.TB, doc []byte, opts ParseOptions, m readMode) {
	t.Helper()
	want, werr := referenceParse(m.open(doc), opts)
	got, gerr := Parse(m.open(doc), opts)
	if d := diffErrors(werr, gerr); d != "" {
		t.Fatalf("Parse %s %+v on %q: %s", m.name, opts, doc, d)
	}
	if werr != nil {
		return
	}
	if d := diffTrees(want, got); d != "" {
		t.Fatalf("Parse %s %+v on %q: %s", m.name, opts, doc, d)
	}
	for _, n := range got.Nodes() {
		if len(n.Children) != cap(n.Children) {
			t.Fatalf("node %d: child slice has spare capacity %d > %d", n.Index, cap(n.Children), len(n.Children))
		}
	}
}

// subtreeStep is one Next outcome with the scanner's counters after it.
type subtreeStep struct {
	st       *Subtree
	err      error
	emitted  int
	failed   int
	offset   int64
	terminal bool
}

func scanSteps(next func() (*Subtree, error), counters func() (int, int, int64), limit int) []subtreeStep {
	var out []subtreeStep
	for i := 0; i < limit; i++ {
		st, err := next()
		e, f, off := counters()
		var se *SubtreeError
		terminal := err != nil && (!errors.As(err, &se) || se.Fatal)
		out = append(out, subtreeStep{st, err, e, f, off, terminal})
		if terminal {
			// Terminal states are sticky.
			if _, again := next(); again != err {
				out = append(out, subtreeStep{err: again, terminal: true})
			}
			break
		}
	}
	return out
}

func checkSubtrees(t testing.TB, doc []byte, opts SubtreeOptions, m readMode) {
	t.Helper()
	limit := len(doc) + 16
	ref := newReferenceSubtreeScanner(m.open(doc), opts)
	want := scanSteps(ref.Next, func() (int, int, int64) { return ref.Emitted(), ref.Failed(), ref.InputOffset() }, limit)
	sc := NewSubtreeScanner(m.open(doc), opts)
	got := scanSteps(sc.Next, func() (int, int, int64) { return sc.Emitted(), sc.Failed(), sc.InputOffset() }, limit)
	fail := func(i int, format string, args ...any) {
		t.Helper()
		t.Fatalf("SubtreeScanner %s %+v on %q, step %d: %s", m.name, opts, doc, i, fmt.Sprintf(format, args...))
	}
	if len(want) != len(got) {
		fail(min(len(want), len(got)), "%d steps, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if d := diffErrors(w.err, g.err); d != "" {
			fail(i, "%s", d)
		}
		if w.emitted != g.emitted || w.failed != g.failed || w.terminal != g.terminal {
			fail(i, "emitted/failed/terminal %d/%d/%v, want %d/%d/%v",
				g.emitted, g.failed, g.terminal, w.emitted, w.failed, w.terminal)
		}
		var wse, gse *SubtreeError
		if errors.As(w.err, &wse) {
			errors.As(g.err, &gse)
			malformedDoc := errors.Is(w.err, xsdferrors.ErrMalformedInput)
			if wse.Subtree != gse.Subtree || wse.Fatal != gse.Fatal || !malformedDoc && wse.Offset != gse.Offset {
				fail(i, "SubtreeError %d/%v at %d, want %d/%v at %d",
					gse.Subtree, gse.Fatal, gse.Offset, wse.Subtree, wse.Fatal, wse.Offset)
			}
			if malformedDoc && gse.Offset <= 0 && wse.Offset > 0 {
				fail(i, "malformed-document offset %d, want positive", gse.Offset)
			}
			if malformedDoc {
				continue
			}
		}
		if w.offset != g.offset {
			fail(i, "InputOffset %d, want %d", g.offset, w.offset)
		}
		if w.st == nil {
			continue
		}
		if w.st.Index != g.st.Index || w.st.StartOffset != g.st.StartOffset || w.st.EndOffset != g.st.EndOffset ||
			strings.Join(w.st.Path, "/") != strings.Join(g.st.Path, "/") || len(w.st.Path) != len(g.st.Path) {
			fail(i, "subtree %d %v [%d,%d), want %d %v [%d,%d)", g.st.Index, g.st.Path, g.st.StartOffset, g.st.EndOffset,
				w.st.Index, w.st.Path, w.st.StartOffset, w.st.EndOffset)
		}
		if d := diffTrees(w.st.Tree, g.st.Tree); d != "" {
			fail(i, "%s", d)
		}
	}
}

// checkMatchesReference runs every oracle on one document.
func checkMatchesReference(t testing.TB, doc []byte, tokenize func(string) []string) {
	t.Helper()
	seed := int64(len(doc))
	checkTokens(t, doc, seed)
	for _, m := range readModes(seed) {
		for _, opts := range oracleConfigs(tokenize) {
			checkParse(t, doc, opts, m)
			for _, split := range []int{1, 2} {
				checkSubtrees(t, doc, SubtreeOptions{ParseOptions: opts, SplitDepth: split}, m)
			}
		}
		tight := ParseOptions{IncludeContent: true, Tokenize: tokenize}
		checkSubtrees(t, doc, SubtreeOptions{ParseOptions: tight, MaxSubtreeBytes: 40, MaxSubtrees: 3}, m)
	}
}

// edgeDocs exercise every rule of the decoder the scanner reproduces;
// none occurs in the benchmark corpus.
var edgeDocs = []string{
	// Names.
	`<a-b.c_d:e/>`, `<_x/>`, `<:x/>`, `<x:/>`, `<p:x></p:x>`, `<p:x></q:x>`, `<p:x></x>`, `<x></p:x>`,
	`<a:b:c/>`, `<a b:c:d="1"/>`, `<1a/>`, `<-a/>`, `<.a/>`, `<a 1b="x"/>`, `< a/>`, `</a>`, `<a></a >`, `<a></a x>`,
	`<é/>`, `<aé/>`, `<a é="1"/>`, `<a·b/>`, `<·a/>`, "<a\xff/>", "<\xc3/>", `<a></é>`, `<ä></ä>`, `<a ä:b="1"/>`,
	// Attributes.
	`<a b=1/>`, `<a b/>`, `<a b="1"c="2"/>`, `<a b="1" b="2"/>`, `<a p:b="1" q:b="2" b="3"/>`,
	`<a xmlns="u" xmlns:p="v" p:x="1"/>`, `<a b="<"/>`, `<a b="]]>"/>`, `<a b='"'/>`, `<a b="'"/>`,
	"<a b=\"x\r\ny\rz\"/>", `<a b="&amp;&lt;&gt;&apos;&quot;"/>`, `<a b="&#65;&#x42;"/>`, `<a b="&bogus;"/>`,
	`<a b = "1" />`, "<a\tb\n=\r'1'\t/>", `<a b="1"/ >`, `<a b="1">`, `<a b="1`, `<a b=`, `<a b`,
	`<a z="1" y="2" x="3" w="4" v="5" u="6" t="7" s="8" r="9" q="10" p="11" o="12" n="13" m="14"/>`,
	// Character data.
	`<a>x]]>y</a>`, `<a>x]]y</a>`, `<a>]]></a>`, `<a>]]]></a>`, `<a>]>]]</a>`, `<a>&amp;]]&gt;</a>`,
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&#65;&#x41;&#X41;</a>`, `<a>&#xD800;</a>`, `<a>&#0;</a>`, `<a>&#xFFFE;</a>`,
	`<a>&#x10FFFF;</a>`, `<a>&#x110000;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#12a;</a>`, `<a>&;</a>`, `<a>&amp</a>`,
	`<a>&am p;</a>`, `<a>&é;</a>`, `<a>& amp;</a>`, `<a>&#99999999999999999999999;</a>`, `<a>&#13;&#10;</a>`,
	"<a>x\r\ny\rz\n\r</a>", "<a>\r</a>", "<a>\r\r\n</a>", "<a>&#13;\n</a>", "<a>\x00</a>", "<a>\x01</a>", "<a>\x7f</a>",
	"<a>\xff</a>", "<a>\xc3\xa9t\xc3\xa9</a>", "<a>\xef\xbf\xbe</a>", "<a>\xed\xa0\x80</a>", "<a>\xf0\x9f\x98\x80</a>",
	"<a>\xc3</a>", "<a>\xc3", `<a>text`, `text<a/>`, `<a/>tail`, `<a/>tail]]>`, ` <a/> `, "\n<a/>\n",
	`<a>"quoted" 'text'</a>`, `<a> x <b/> y </a>`,
	// CDATA.
	`<a><![CDATA[x<y&z]]></a>`, `<a><![CDATA[]]></a>`, `<a><![CDATA[]]]]></a>`, `<a><![CDATA[a]]>b</a>`,
	"<a><![CDATA[x\r\ny]]></a>", "<a><![CDATA[\xff]]></a>", `<a><![CDATA[x`, `<a><![CDATA[x]]`, `<a><![cdata[x]]></a>`,
	`<a><![CDAT></a>`, `<a><![</a>`, `<![CDATA[top]]><a/>`,
	// Comments.
	`<a><!-- c --></a>`, `<a><!----></a>`, `<a><!-- a -- b --></a>`, `<a><!-- --->`, `<a><!--->--></a>`,
	`<a><!- x --></a>`, `<a><!--`, "<a><!--\xff--></a>", `<!-- before --><a/><!-- after -->`,
	// Processing instructions and the XML declaration.
	`<?xml version="1.0"?><a/>`, `<?xml version="1.1"?><a/>`, `<?xml version='2.0'?><a/>`, `<?xml encoding="utf-8"?><a/>`,
	`<?xml encoding="UTF-8"?><a/>`, `<?xml encoding="Utf-8"?><a/>`, `<?xml encoding="latin1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml?><a/>`, `<?xml ?><a/>`, `<?xml version=1.0?><a/>`,
	`<?xml versionx="2"?><a/>`, `<?xml version="1.0"`, `<?pi data?><a/>`, `<?pi?><a/>`, `<? pi?><a/>`, `<?1pi?><a/>`,
	`<?p:i x?><a/>`, `<?pi a?b?><a/>`, `<a><?xml version="9"?></a>`, "<?pi \xff?><a/>", `<?é?><a/>`, `<?`,
	// Directives.
	`<!DOCTYPE a><a/>`, `<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>`, `<!DOCTYPE a [<!ENTITY x "<>">]><a/>`,
	`<!DOCTYPE a [<!-- > --><!ELEMENT a ANY>]><a/>`, `<!DOCTYPE a '>'><a/>`, `<!DOCTYPE a "'>"><a/>`,
	`<!DOCTYPE a [<<!x>>]><a/>`, `<!DOCTYPE a [<!-x>]><a/>`, `<!DOCTYPE a [<!--x-->]><a/>`, `<!DOCTYPE a`,
	`<!'>'><a/>`, `<!>x><a/>`, `<!<><a/>`, `<!x <!- >><a/>`, `<!x "\xff"><a/>`, "<!x\x00><a/>",
	// Structure.
	``, ` `, `<`, `<a`, `<a>`, `<a/><b/>`, `<a></a><b/>`, `<a/>text<b/>`, `<a><b></a></b>`, `<a></b></a>`,
	`{"json": true}`, `<a><b/><c><d/></c></a>`, `<r><s>one</s><s>two</s></r>`, `<r><s>one</s>text<s/></r>`,
	`<r a="1"><s b="2">x</s></r>`, `<r><s><t><u>deep</u></t></s></r>`,
}

// repositoryXML returns every string literal containing '<' in the
// repository's test files: the XML documents the rest of the suite
// feeds the pipeline.
func repositoryXML(t testing.TB) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := goparser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err == nil && strings.Contains(s, "<") && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 100 {
		t.Fatalf("found only %d XML literals in the repository's tests", len(out))
	}
	return out
}

// generatedDocs are constructed inputs: deep nesting, wide fan-out,
// many attributes with repeated local names (the unstable-sort case),
// and long runs that cross window refills.
func generatedDocs() []string {
	var attrs strings.Builder
	attrs.WriteString("<a")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&attrs, ` p%d:n%d="%d"`, i, (i*7)%5, i)
	}
	attrs.WriteString(">x</a>")
	return []string{
		nested(7), nested(9), nested(30),
		attrs.String(),
		"<r>" + strings.Repeat("<s>w</s>", 40) + "</r>",
		"<r>" + strings.Repeat("<b/>", 20) + strings.Repeat("<c>x y</c>", 20) + "</r>",
		"<r>" + strings.Repeat("word ", 2000) + "</r>",
		"<r><s>" + strings.Repeat("x", 9000) + "</s></r>",
		"<r><s>" + strings.Repeat("x&amp;", 2000) + "</s></r>",
		`<r a="` + strings.Repeat("v ", 3000) + `"/>`,
		"<" + strings.Repeat("n", 5000) + "/>",
		"<r><!--" + strings.Repeat("-x", 3000) + "--></r>",
		"<r>" + strings.Repeat("<s>é</s>", 500) + "</r>",
		"<r>" + strings.Repeat("<s a='1' b='2'/>", 20) + "</r>",
	}
}

func oracleInputs(t testing.TB) []string {
	return append(append(append([]string(nil), edgeDocs...), generatedDocs()...), repositoryXML(t)...)
}

func TestParseMatchesReference(t *testing.T) {
	for _, doc := range oracleInputs(t) {
		checkMatchesReference(t, []byte(doc), nil)
	}
}

// TestScannerReaderErrors: a reader error is reported at the token where
// encoding/xml reports it — after the text read before it — and stays
// reachable through the parse error.
func TestScannerReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	docs := []string{`<a>`, `<a>text`, `<a b="`, `<a b="1"`, `<a><`, `<a></a`, `<a>&am`, `<a><!--`, `<a/>`, `<a>x</a>`}
	for _, doc := range docs {
		open := func() io.Reader { return io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom)) }
		want, got := decoderTrace(open()), scannerTrace(open())
		if d := diffLines(want, got); d != "" {
			t.Errorf("%q: %s", doc, d)
		}
		_, werr := referenceParse(open(), DefaultParseOptions())
		_, gerr := Parse(open(), DefaultParseOptions())
		if d := diffErrors(werr, gerr); d != "" {
			t.Errorf("%q: %s", doc, d)
		}
		if !errors.Is(gerr, boom) || !errors.Is(gerr, xsdferrors.ErrMalformedInput) {
			t.Errorf("%q: error %v does not wrap both the reader error and ErrMalformedInput", doc, gerr)
		}
	}
	// Data returned together with an error is still read first.
	for _, doc := range docs {
		open := func() io.Reader { return iotest.DataErrReader(strings.NewReader(doc)) }
		if d := diffLines(decoderTrace(open()), scannerTrace(open())); d != "" {
			t.Errorf("data-err %q: %s", doc, d)
		}
	}
	// A reader that never makes progress fails like bufio does.
	if _, err := Parse(emptyReader{}, DefaultParseOptions()); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("stalled reader: %v, want io.ErrNoProgress", err)
	}
}

type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// FuzzParseMatchesReference runs every oracle on arbitrary bytes.
func FuzzParseMatchesReference(f *testing.F) {
	for _, doc := range oracleInputs(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkMatchesReference(t, doc, nil)
	})
}
