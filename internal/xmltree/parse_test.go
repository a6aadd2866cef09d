package xmltree

import (
	"bytes"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// doc1 is Figure 1.a of the paper.
const doc1 = `<?xml version="1.0"?>
<films>
  <picture title="Rear Window">
    <director> Hitchcock </director>
    <year> 1954 </year>
    <genre> mystery </genre>
    <cast>
      <star> Stewart </star>
      <star> Kelly </star>
    </cast>
    <plot>A wheelchair bound photographer spies on his neighbors</plot>
  </picture>
</films>`

func TestParseDoc1Structure(t *testing.T) {
	tr, err := ParseString(doc1, DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Label != "films" {
		t.Fatalf("root = %s", tr.Root.Label)
	}
	picture := tr.Root.Children[0]
	if picture.Label != "picture" {
		t.Fatalf("first child = %s", picture.Label)
	}
	// The title attribute must come first (attributes before sub-elements).
	attr := picture.Children[0]
	if attr.Kind != Attribute || attr.Label != "title" {
		t.Fatalf("first child of picture = %v, want title attribute", attr)
	}
	if len(attr.Children) != 2 || attr.Children[0].Raw != "Rear" || attr.Children[1].Raw != "Window" {
		t.Errorf("title attribute tokens = %v", attr.Children)
	}
	// Elements follow in document order.
	var elems []string
	for _, c := range picture.Children[1:] {
		elems = append(elems, c.Label)
	}
	if got := strings.Join(elems, ","); got != "director,year,genre,cast,plot" {
		t.Errorf("element order = %s", got)
	}
}

func TestParseStructureOnly(t *testing.T) {
	tr, err := ParseString(doc1, ParseOptions{IncludeContent: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() {
		if n.Kind == Token {
			t.Fatalf("structure-only tree contains token %q", n.Raw)
		}
	}
}

func TestParseAttributesSorted(t *testing.T) {
	tr, err := ParseString(`<m zeta="1" alpha="2" mid="3"/>`, DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range tr.Root.Children {
		if c.Kind == Attribute {
			names = append(names, c.Label)
		}
	}
	if got := strings.Join(names, ","); got != "alpha,mid,zeta" {
		t.Errorf("attributes = %s, want sorted", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"empty", ``},
		{"unclosed", `<a><b></b>`},
		{"junk", `<<<`},
		{"two roots", `<a/><b/>`},
	}
	for _, c := range cases {
		if _, err := ParseString(c.doc, DefaultParseOptions()); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseCustomTokenizer(t *testing.T) {
	opts := DefaultParseOptions()
	opts.Tokenize = func(s string) []string {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil
		}
		return []string{strings.ToLower(s)} // whole value as one token
	}
	tr, err := ParseString(`<a>Hello World</a>`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Raw != "hello world" {
		t.Errorf("custom tokenizer ignored: %v", tr.Root.Children)
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	tr, err := ParseString(doc1, DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse(&buf, DefaultParseOptions())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if tr2.Len() != tr.Len() {
		t.Errorf("round trip node count %d != %d", tr2.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if tr.Node(i).Raw != tr2.Node(i).Raw || tr.Node(i).Kind != tr2.Node(i).Kind {
			t.Errorf("node %d: %v != %v", i, tr.Node(i), tr2.Node(i))
		}
	}
}

func TestWriteXMLAnnotated(t *testing.T) {
	tr, err := ParseString(`<cast><star>Kelly</star></cast>`, DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr.Root.Sense = "cast.n.01"
	var buf bytes.Buffer
	if err := tr.WriteXML(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `xsdf:sense="cast.n.01"`) {
		t.Errorf("annotated output missing sense attribute:\n%s", buf.String())
	}
}

func TestWriteXMLEscaping(t *testing.T) {
	root := &Node{Raw: "a", Label: "a", Kind: Element}
	root.AddChild(&Node{Raw: `x<&>"y`, Label: "x", Kind: Token})
	tr := New(root)
	var buf bytes.Buffer
	if err := tr.WriteXML(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "x<&>") {
		t.Errorf("unescaped special characters in %s", out)
	}
	if !strings.Contains(out, "x&lt;&amp;&gt;") {
		t.Errorf("expected escapes in %s", out)
	}
}

// TestWriteXMLAllocs bounds what serializing costs per value. The escapers
// are built once and shared, so escaping a value allocates at most its
// escaped copy; a replacer built per value costs several allocations and
// a 256-entry lookup table each time.
func TestWriteXMLAllocs(t *testing.T) {
	const items = 100
	root := &Node{Raw: "doc", Label: "doc", Kind: Element}
	for i := 0; i < items; i++ {
		item := &Node{Raw: "item", Label: "item", Kind: Element}
		attr := &Node{Raw: "id", Label: "id", Kind: Attribute}
		attr.AddChild(&Node{Raw: "v" + strconv.Itoa(i), Label: "v", Kind: Token})
		item.AddChild(attr)
		item.AddChild(&Node{Raw: "fish&chips", Label: "fish", Kind: Token})
		root.AddChild(item)
	}
	tr := New(root)
	const values = 2 * items
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, func() {
		if err := tr.WriteXML(io.Discard, false); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if perValue := allocs / values; perValue > 6 {
		t.Errorf("WriteXML allocates %.1f times per value, want <= 6", perValue)
	}
	// AllocsPerRun makes 21 calls (one warm-up).
	if perValue := float64(after.TotalAlloc-before.TotalAlloc) / (21 * values); perValue > 512 {
		t.Errorf("WriteXML allocates %.0f bytes per value, want <= 512", perValue)
	}
}

func TestWriteXMLEmptyTree(t *testing.T) {
	var tr Tree
	if err := tr.WriteXML(&bytes.Buffer{}, false); err == nil {
		t.Error("expected error for empty tree")
	}
}
