package semnet

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/xsdferrors"
)

func writeTestFile(t *testing.T, version string) (string, *Network, FileInfo) {
	t.Helper()
	n := buildFigure2(t)
	path := filepath.Join(t.TempDir(), "lexicon.semnet")
	info, err := WriteFile(path, n, version)
	if err != nil {
		t.Fatal(err)
	}
	return path, n, info
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	path, orig, info := writeTestFile(t, "v1.2")
	if info.Version != "v1.2" {
		t.Errorf("version = %q", info.Version)
	}
	if info.Concepts != orig.Len() {
		t.Errorf("concepts = %d, want %d", info.Concepts, orig.Len())
	}
	if len(info.Checksum) != 64 {
		t.Errorf("checksum %q not a sha256 hex digest", info.Checksum)
	}
	loaded, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Errorf("ReadFile info %+v, WriteFile info %+v", got, info)
	}
	if loaded.Len() != orig.Len() {
		t.Errorf("Len %d vs %d", loaded.Len(), orig.Len())
	}
	if err := loaded.Validate(); err != nil {
		t.Errorf("loaded network invalid: %v", err)
	}
	// The file checksum is the hash of the writer's canonical Save bytes,
	// so re-packing the same network reproduces the identity bit-for-bit.
	if orig.Checksum() != info.Checksum {
		t.Errorf("Network.Checksum %s != file checksum %s", orig.Checksum(), info.Checksum)
	}
	// The footer is a comment: the lenient Load still accepts the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Errorf("plain Load rejected a footered file: %v", err)
	}
}

func TestWriteFileDefaultVersion(t *testing.T) {
	_, _, info := writeTestFile(t, "")
	if !strings.HasPrefix(info.Version, "sha-") || len(info.Version) != len("sha-")+12 {
		t.Errorf("default version = %q, want sha-<12 hex>", info.Version)
	}
	if !strings.HasPrefix(info.Checksum, info.Version[len("sha-"):]) {
		t.Errorf("version %q not derived from checksum %q", info.Version, info.Checksum)
	}
}

func TestWriteFileSanitizesVersion(t *testing.T) {
	_, _, info := writeTestFile(t, "oewn 2025\trc1")
	if info.Version != "oewn-2025-rc1" {
		t.Errorf("version = %q, want whitespace folded to dashes", info.Version)
	}
}

// corrupt applies f to the file bytes and writes them back.
func corrupt(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileRejectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		// The regression fixture of the crash-safe write satellite: a
		// writer that died mid-copy leaves a prefix that still parses.
		{"truncated half", func(d []byte) []byte { return d[:len(d)/2] }},
		{"truncated footer", func(d []byte) []byte {
			i := bytes.LastIndex(d[:len(d)-1], []byte("\n"))
			return d[:i+1]
		}},
		{"trailing garbage line", func(d []byte) []byte { return append(d, []byte("r\tbogus\thypernym\tbogus\n")...) }},
		{"trailing garbage bytes", func(d []byte) []byte { return append(d, []byte("xx")...) }},
		{"flipped content byte", func(d []byte) []byte {
			out := bytes.Clone(d)
			out[len(out)/3] ^= 0x20
			return out
		}},
		{"empty", func([]byte) []byte { return nil }},
		{"footer only concept-count lie", func(d []byte) []byte {
			return bytes.Replace(d, []byte("concepts="), []byte("concepts=9"), 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path, _, _ := writeTestFile(t, "v1")
			corrupt(t, path, c.mut)
			_, _, err := ReadFile(path)
			if err == nil {
				t.Fatal("ReadFile accepted a corrupted file")
			}
			if !errors.Is(err, xsdferrors.ErrMalformedInput) {
				t.Errorf("error %v does not match ErrMalformedInput", err)
			}
		})
	}
}

func TestReadFileRejectsUnfooteredFile(t *testing.T) {
	n := buildFigure2(t)
	path := filepath.Join(t.TempDir(), "plain.semnet")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := ReadFile(path); !errors.Is(err, xsdferrors.ErrMalformedInput) {
		t.Errorf("ReadFile on plain Save output: %v, want ErrMalformedInput", err)
	}
}

func TestVerifyFile(t *testing.T) {
	path, _, info := writeTestFile(t, "v7")
	got, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Errorf("VerifyFile info %+v, want %+v", got, info)
	}
	corrupt(t, path, func(d []byte) []byte { return d[:len(d)-8] })
	if _, err := VerifyFile(path); !errors.Is(err, xsdferrors.ErrMalformedInput) {
		t.Errorf("VerifyFile on truncated file: %v", err)
	}
}

func TestWriteFileLeavesNoTempOnSuccess(t *testing.T) {
	path, _, _ := writeTestFile(t, "v1")
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestChecksumMemoizedAndStable(t *testing.T) {
	n := buildFigure2(t)
	c1, c2 := n.Checksum(), n.Checksum()
	if c1 != c2 || len(c1) != 64 {
		t.Fatalf("checksums %q / %q", c1, c2)
	}
	if m := buildFigure2(t); m.Checksum() != c1 {
		t.Error("identical builds hash differently")
	}
}

// sameConcepts reports whether two networks hold the same concepts, in
// order and bit for bit, with the same edge sets (the codec round-trips
// networks up to edge order).
func sameConcepts(a, b *Network) bool {
	if !slices.Equal(a.order, b.order) {
		return false
	}
	for d := range a.concepts {
		x, y := &a.concepts[d], &b.concepts[d]
		if x.ID != y.ID || x.Gloss != y.Gloss || !slices.Equal(x.Lemmas, y.Lemmas) ||
			math.Float64bits(x.Freq) != math.Float64bits(y.Freq) {
			return false
		}
		ex, ey := slices.Clone(a.edges[d]), slices.Clone(b.edges[d])
		order := func(p, q Edge) int {
			return cmp.Or(strings.Compare(string(p.To), string(q.To)), cmp.Compare(p.Rel, q.Rel))
		}
		slices.SortFunc(ex, order)
		slices.SortFunc(ey, order)
		if !slices.Equal(ex, ey) {
			return false
		}
	}
	return true
}

// TestWriteFileRejectsUnencodable: each network here is valid Builder
// output that Save writes and Load fails on or reads back as a different
// network. WriteFile must refuse it, naming the concept and the field,
// before any file is created.
func TestWriteFileRejectsUnencodable(t *testing.T) {
	base := func() *Builder {
		return NewBuilder().AddConcept("root.n.01", "the root", 5, "root")
	}
	cases := []struct {
		name, concept, field string
		b                    *Builder
	}{
		{"newline in gloss", "x.n.01", "gloss", base().AddConcept("x.n.01", "first line\nsecond line", 1, "x")},
		{"tab in gloss", "x.n.01", "gloss", base().AddConcept("x.n.01", "a\tb", 1, "x")},
		{"newline in id", "x\n.n.01", "id", base().AddConcept("x\n.n.01", "gloss", 1, "x")},
		{"tab in id", "x\t.n.01", "id", base().AddConcept("x\t.n.01", "gloss", 1, "x")},
		{"bar in lemma", "x.n.01", "lemma", base().AddConcept("x.n.01", "gloss", 1, "x|y")},
		{"tab in lemma", "x.n.01", "lemma", base().AddConcept("x.n.01", "gloss", 1, "x\ty")},
		{"gloss ends in CR", "x.n.01", "gloss", base().AddConcept("x.n.01", "gloss\r", 1, "x")},
		{"id ends in CR", "x.n.01\r", "id", base().AddConcept("x.n.01\r", "gloss", 1, "x").IsA("root.n.01", "x.n.01\r")},
		{"related self edge", "x.n.01", "related edge", base().AddConcept("x.n.01", "gloss", 1, "x").AddEdge("x.n.01", Related, "x.n.01")},
		{"unnamed relation", "x.n.01", "edge", base().AddConcept("x.n.01", "gloss", 1, "x").AddEdge("x.n.01", Relation(9), "root.n.01")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := c.b.Build()
			if err != nil {
				t.Fatal(err)
			}
			// Without the check the codec would not carry the network.
			var buf bytes.Buffer
			if err := n.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if back, err := Load(&buf); err == nil && sameConcepts(n, back) {
				t.Fatal("the codec carries this network; the case tests nothing")
			}
			dir := t.TempDir()
			_, err = WriteFile(filepath.Join(dir, "lexicon.semnet"), n, "v1")
			if err == nil {
				t.Fatal("WriteFile accepted a network the codec cannot carry")
			}
			if msg := err.Error(); !strings.Contains(msg, strconv.Quote(c.concept)) || !strings.Contains(msg, c.field) {
				t.Errorf("error %q does not name concept %q and field %q", msg, c.concept, c.field)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("WriteFile left %d files behind", len(entries))
			}
		})
	}
	// Bytes the codec does carry: a carriage return inside a field, '#'
	// and spaces, an empty gloss, related edges between distinct concepts.
	n, err := base().AddConcept("x#1", "carriage\rreturn # not a comment", 2, "multi word", "y").
		AddConcept("z", "", 3, "z").IsA("x#1", "root.n.01").AddEdge("z", Related, "x#1").Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lexicon.semnet")
	if _, err := WriteFile(path, n, "v1"); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameConcepts(n, back) || back.Checksum() != n.Checksum() {
		t.Error("a network the codec carries came back different")
	}
}
