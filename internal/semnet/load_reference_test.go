package semnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// LoadMatchesReference loads data with Load and with the reference load
// path (reference_test.go) and returns the first difference between the
// two outcomes, or nil. Errors must read the same, except that where the
// reference picks among unknown edge endpoints by map order only the
// error kind is compared.
func LoadMatchesReference(data []byte) error {
	return readerMatchesReference(func() io.Reader { return bytes.NewReader(data) })
}

// readerMatchesReference loads what each call of open returns with Load
// and with the reference load path and compares the outcomes.
func readerMatchesReference(open func() io.Reader) error {
	want, werr := refLoad(open())
	got, gerr := Load(open())
	return matchOutcome(got, gerr, want, werr)
}

// NetworkMatchesReference compares a network, read with ReadFile, say,
// with the reference load of the codec content data.
func NetworkMatchesReference(n *Network, data []byte) error {
	want, err := refLoad(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("reference load: %v", err)
	}
	return matchNetwork(n, want)
}

var unknownEndpoint = regexp.MustCompile(`^semnet: edge (from unknown concept ".*"|".*" -> unknown concept ".*")$`)

func matchOutcome(got *Network, gerr error, want *refNetwork, werr error) error {
	switch {
	case gerr == nil && werr == nil:
		return matchNetwork(got, want)
	case gerr == nil || werr == nil:
		return fmt.Errorf("error %v, reference error %v", gerr, werr)
	case gerr.Error() == werr.Error():
		return nil
	case unknownEndpoint.MatchString(gerr.Error()) && unknownEndpoint.MatchString(werr.Error()):
		return nil
	}
	return fmt.Errorf("error %q, reference error %q", gerr, werr)
}

// matchNetwork compares every field Build derives, floats bit for bit.
func matchNetwork(n *Network, r *refNetwork) error {
	floats := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if !slices.Equal(n.order, r.order) || len(n.concepts) != len(r.concepts) {
		return fmt.Errorf("order %q, reference %q", n.order, r.order)
	}
	if !slices.Equal(n.index.ids, r.index.ids) || len(n.index.dense) != len(r.index.dense) {
		return fmt.Errorf("concept index differs")
	}
	for d, id := range r.order {
		c, rc := &n.concepts[d], r.concepts[id]
		if c.ID != rc.ID || c.Gloss != rc.Gloss || !slices.Equal(c.Lemmas, rc.Lemmas) ||
			math.Float64bits(c.Freq) != math.Float64bits(rc.Freq) {
			return fmt.Errorf("concept %d: %+v, reference %+v", d, *c, *rc)
		}
		if n.index.dense[id] != r.index.dense[id] {
			return fmt.Errorf("concept %q: dense id %d, reference %d", id, n.index.dense[id], r.index.dense[id])
		}
		if !slices.Equal(n.edges[d], r.edges[id]) || !slices.Equal(n.edgesD[d], r.edgesD[d]) {
			return fmt.Errorf("concept %q: edges %v %v, reference %v %v", id, n.edges[d], n.edgesD[d], r.edges[id], r.edgesD[d])
		}
		if !slices.Equal(n.ancListD[d], r.ancListD[d]) || !slices.Equal(n.ancSortedD[d], r.ancSortedD[d]) {
			return fmt.Errorf("concept %q: ancestors %v %v, reference %v %v", id, n.ancListD[d], n.ancSortedD[d], r.ancListD[d], r.ancSortedD[d])
		}
		if !slices.Equal(n.glossOccD[d], r.glossOccD[d]) {
			return fmt.Errorf("concept %q: gloss occurrences %v, reference %v", id, n.glossOccD[d], r.glossOccD[d])
		}
	}
	if len(n.labels) != len(r.byLemma) || len(n.labelID) != len(r.labelID) {
		return fmt.Errorf("%d labels, reference %d lemmas and %d labels", len(n.labels), len(r.byLemma), len(r.labelID))
	}
	for l, lemma := range n.labels {
		if !slices.Equal(n.sensesS[l], r.byLemma[lemma]) {
			return fmt.Errorf("lemma %q: senses %q, reference %q", lemma, n.sensesS[l], r.byLemma[lemma])
		}
		if n.labelID[lemma] != int32(l) || r.labelID[lemma] != int32(l) {
			return fmt.Errorf("lemma %q: label id %d, reference %d, rank %d", lemma, n.labelID[lemma], r.labelID[lemma], l)
		}
	}
	if n.maxPolysemy != r.maxPolysemy || n.maxDepth != r.maxDepth ||
		math.Float64bits(n.totalFreq) != math.Float64bits(r.totalFreq) {
		return fmt.Errorf("maxima %d %d %v, reference %d %d %v", n.maxPolysemy, n.maxDepth, n.totalFreq,
			r.maxPolysemy, r.maxDepth, r.totalFreq)
	}
	if !floats(n.cumFreqD, r.cumFreqD) || !floats(n.icD, r.icD) {
		return fmt.Errorf("cumulative frequencies or IC differ:\n got %v %v\nwant %v %v", n.cumFreqD, n.icD, r.cumFreqD, r.icD)
	}
	switch {
	case !slices.Equal(n.depthD, r.depthD):
		return fmt.Errorf("depths %v, reference %v", n.depthD, r.depthD)
	case !slices.Equal(n.labels, r.labels):
		return fmt.Errorf("labels %q, reference %q", n.labels, r.labels)
	case !slices.EqualFunc(n.sensesL, r.sensesL, slices.Equal[[]DenseID]):
		return fmt.Errorf("label senses %v, reference %v", n.sensesL, r.sensesL)
	case !slices.Equal(n.labelOfD, r.labelOfD):
		return fmt.Errorf("primary labels %v, reference %v", n.labelOfD, r.labelOfD)
	case !slices.Equal(n.glossVocab, r.glossVocab):
		return fmt.Errorf("gloss vocabulary %q, reference %q", n.glossVocab, r.glossVocab)
	}
	return nil
}

// loadEdgeCases are hand-written codec inputs: edge shapes the lexicons
// do not have, glosses the ASCII split does not take, the line reader's
// framing, and every malformed-record error.
var loadEdgeCases = []string{
	// Duplicate edges, an edge given in both directions, self edges and a
	// diamond of multi-parent concepts.
	"c\ta\t5\ta\troot\nc\tb\t3\tb|x\tleft\nc\tc\t3\tc|x\tright\nc\td\t1\td|x\tbottom\n" +
		"r\tb\thypernym\ta\nr\tb\thypernym\ta\nr\ta\thyponym\tc\nr\tc\thypernym\ta\n" +
		"r\td\thypernym\tb\nr\td\thypernym\tc\nr\td\trelated\td\nr\td\tholonym\td\nr\ta\tmeronym\td\nr\td\tholonym\ta\n",
	// Non-ASCII glosses: KELVIN SIGN and U+0130 lower to ASCII letters.
	"c\tk\t1\tkelvin\tthe Kelvin scale of KK and KX\nc\ti\t1\tistanbul\tİstanbul İI city\n" +
		"c\tu\t1\tnaive\tnaïve café ÀB ﬁle ΑΒΓ straße\nc\tv\t1\tbytes\tbad \xff\xfebytes a\xc3b \xed\xa0\x80x\n" +
		"c\te\t1\tempty\t\nc\tp\t1\tpunct\t -- ; 1954! X.Y Z\nr\tk\thypernym\tp\nr\ti\trelated\tu\nr\tv\tholonym\te\n",
	// Upper-case ASCII, stop words, one-letter words and digits.
	"c\tm\t2\tMovie|Film| Picture \tA Motion PICTURE, or the Film of 1954 and THE Movies\nc\tn\t2\tmovie\tthe movies A b c 7 77\nr\tn\thypernym\tm\n",
	// CRLF endings, comments, blank lines, a bare CR line and a CR inside
	// a field.
	"# header\r\n\r\nc\ta\t1\ta\tgloss one\r\n# comment\nc\tb\t1\tb\tgloss\rtwo\r\n\n\nr\tb\thypernym\ta\r\n",
	"c\ta\t1\ta\tx\n\r\r\n",
	"c\ta\t1\ta\tno final newline",
	"",
	"\n\n#only comments\n",
	// Frequencies that do not order, ties and repeated lemmas.
	"c\ta\tNaN\tx|x|X\tnan\nc\tb\t+Inf\tx\tinf\nc\tc\t-Inf\tx\tneg\nc\td\t0\tx\tzero\nc\te\t-1\tx\tnegative\nc\tf\t1e-320\tx\ttiny\n" +
		"c\tg\tNaN\tx\tnan2\nc\th\t1\tx\tone\nc\ti\t1\tx\tone again\nr\tb\thypernym\ta\nr\tc\thypernym\tb\n",
	"c\ta\t1\t\tempty lemma\nc\tb\t1\t|\ttwo empty lemmas\nc\tc\t1\tA|a|a \tsame lemma thrice\n",
	// Malformed records.
	"x\ta\tb",
	"c\tid\t1",
	"c\tid\t1\tl\tg\textra",
	"c\tid\tNOPE\tlemma\tgloss",
	"c\tid\t1e309\tlemma\tgloss",
	"r\ta\thypernym",
	"r\ta\thypernym\tb\textra",
	"c\ta.n.01\t1\ta\tg\nr\ta.n.01\tfriendof\ta.n.01",
	"c\ta\t1\ta\tg\nr\ta\thypernym\tb",
	"c\ta\t1\ta\tg\nr\tb\thypernym\ta",
	"c\ta\t1\ta\tg\nr\tb\thypernym\tc\nr\ta\thypernym\td",
	"c\ta\t1\ta\tg\nc\ta\t2\tb\tdup",
	"c\ta\t1\ta\tg\nc\ta\t2\tb\tdup\nbogus",
	"c\ta\t1\ta\tg\nc\tb\t1\tb\tg\nr\ta\thypernym\tb\nr\tb\thypernym\ta",
	"c\ta\t1\ta\tg\nr\ta\thypernym\ta",
	"c\ta\t1\ta\tg\nr\ta\tHypernym\ta",
	"\tc\ta",
	"c",
	"C\ta\t1\ta\tg",
}

// longLineCases straddle the 4 MiB line limit, terminated and not.
func longLineCases() []string {
	head := "c\ta\t1\ta\t"
	pad := func(n int) string {
		return head + strings.Repeat("w ", (n-len(head))/2) + strings.Repeat("w", (n-len(head))%2)
	}
	return []string{
		pad(maxLineBytes-1) + "\n",
		pad(maxLineBytes - 1),
		pad(maxLineBytes) + "\n",
		pad(maxLineBytes),
		"c\tb\t1\tb\tfirst\n" + pad(maxLineBytes-1) + "\r\n",
		"bogus\n" + pad(maxLineBytes) + "\n",
		pad(maxLineBytes) + "\nbogus\n",
	}
}

// buildOp is one Builder call, replayed on both builders.
type buildOp struct {
	id, to ConceptID
	rel    Relation
	gloss  string
	freq   float64
	lemmas []string // nil: an AddEdge call
}

func (op buildOp) concept() bool { return op.lemmas != nil }

// builderCases drive the Builder API directly: calls Load never makes
// (concepts without lemmas, relation kinds the codec has no name for)
// and edges declared before their concepts.
var builderCases = [][]buildOp{
	{{id: "a", lemmas: []string{}}, {id: "b", lemmas: []string{"b"}, freq: 1}},
	{{id: "a", to: "b", rel: Hypernym}, {id: "a", lemmas: []string{"A", "x"}, freq: 2, gloss: "Alpha"},
		{id: "b", lemmas: []string{"x"}, freq: 3, gloss: "beta"}},
	{{id: "a", lemmas: []string{"a"}, freq: 1}, {id: "b", lemmas: []string{"b"}, freq: 1},
		{id: "a", to: "b", rel: Relation(9)}, {id: "a", to: "b", rel: Relation(9)}, {id: "b", to: "a", rel: Relation(200)},
		{id: "a", to: "a", rel: Relation(7)}, {id: "a", to: "b", rel: Related}, {id: "b", to: "a", rel: Related}},
}

// replay runs ops on a Builder and on the reference builder.
func replay(ops []buildOp) error {
	b, rb := NewBuilder(), newRefBuilder()
	for _, op := range ops {
		if op.concept() {
			b.AddConcept(op.id, op.gloss, op.freq, op.lemmas...)
			rb.AddConcept(op.id, op.gloss, op.freq, op.lemmas...)
		} else {
			b.AddEdge(op.id, op.rel, op.to)
			rb.AddEdge(op.id, op.rel, op.to)
		}
	}
	got, gerr := b.Build()
	want, werr := rb.Build()
	return matchOutcome(got, gerr, want, werr)
}

// sensesCase gives one lemma more senses than one insertion-sort block of
// the stable sort (20), with tied and unordered (NaN) frequencies, so the
// merge phase decides their order.
func sensesCase() string {
	var sb strings.Builder
	freqs := []string{"3", "1", "NaN", "2", "1", "5", "NaN", "0.5", "2", "7"}
	for i := 0; i < 57; i++ {
		fmt.Fprintf(&sb, "c\ts%02d\t%s\tpoly|p%d\tsense %d\n", i, freqs[(i*7)%len(freqs)], i%3, i)
	}
	return sb.String()
}

// FuzzLoadMatchesReference: on arbitrary bytes, Load must give the
// reference load's network, field for field and bit for bit, or its
// error.
func FuzzLoadMatchesReference(f *testing.F) {
	for _, s := range loadEdgeCases {
		f.Add([]byte(s))
	}
	f.Add([]byte(sensesCase()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := LoadMatchesReference(data); err != nil {
			t.Fatalf("%q: %v", data, err)
		}
	})
}

// EdgeCasesMatchReference runs the hand-written inputs and the Builder
// scripts against the reference, reporting each difference through
// errorf; TestLoadMatchesReference runs it beside the lexicons.
func EdgeCasesMatchReference(errorf func(format string, args ...any)) {
	for i, s := range append(append(loadEdgeCases[:len(loadEdgeCases):len(loadEdgeCases)], sensesCase()), longLineCases()...) {
		if err := LoadMatchesReference([]byte(s)); err != nil {
			errorf("case %d (%.60q): %v", i, s, err)
		}
	}
	for i, ops := range builderCases {
		if err := replay(ops); err != nil {
			errorf("builder case %d: %v", i, err)
		}
	}
	// A reader that fails after some lines: the lines read are parsed
	// first, a partial last line included, then the read error is
	// reported.
	for i, s := range []string{
		"c\ta\t1\ta\tg\nc\tb\t1\tb\tpartial",
		"c\ta\t1\ta\tg\nbogus\nc\tb",
		"c\ta\t1\ta\tg\nc\tb\t1\tb\tg\nr\ta\thyper",
		"",
	} {
		open := func() io.Reader {
			return io.MultiReader(strings.NewReader(s), iotest.ErrReader(errors.New("device gone")))
		}
		if err := readerMatchesReference(open); err != nil {
			errorf("failing reader %d: %v", i, err)
		}
	}
}
