package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/semnet"
	"repro/internal/wordnet"
	"repro/xsdferrors"
)

// packDefault writes the embedded lexicon to a checksummed codec file.
func packDefault(t *testing.T, version string) (string, semnet.FileInfo) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lexicon.semnet")
	info, err := semnet.WriteFile(path, wordnet.Default(), version)
	if err != nil {
		t.Fatal(err)
	}
	return path, info
}

func newTestFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestConstructionLexiconInfo(t *testing.T) {
	fw := newTestFramework(t)
	info := fw.LexiconInfo()
	if info.Epoch != 1 {
		t.Errorf("construction epoch = %d, want 1", info.Epoch)
	}
	if info.Source != "construction" {
		t.Errorf("source = %q", info.Source)
	}
	if info.Checksum != wordnet.Default().Checksum() {
		t.Errorf("checksum %q does not identify the embedded lexicon", info.Checksum)
	}
	if info.Concepts != wordnet.Default().Len() {
		t.Errorf("concepts = %d", info.Concepts)
	}
	res, err := fw.ProcessReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.LexiconEpoch != 1 || res.LexiconVersion != info.Version {
		t.Errorf("result stamped %d/%q, want 1/%q", res.LexiconEpoch, res.LexiconVersion, info.Version)
	}
}

// TestFileLexiconIdentityStable: a framework built over a network read
// from a codec file reports the file's version and checksum from epoch 1,
// the identity a reload of the same file reports at epoch 2.
func TestFileLexiconIdentityStable(t *testing.T) {
	path, finfo := packDefault(t, "v7")
	net, _, err := semnet.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first := fw.LexiconInfo()
	second, err := fw.Reload(context.Background(), path, ReloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 1 || second.Epoch != 2 {
		t.Fatalf("epochs %d, %d", first.Epoch, second.Epoch)
	}
	if first.Version != "v7" || second.Version != "v7" || first.Checksum != finfo.Checksum || second.Checksum != finfo.Checksum {
		t.Errorf("identity at epoch 1 %s/%s, at epoch 2 %s/%s, file %s/%s",
			first.Version, first.Checksum, second.Version, second.Checksum, finfo.Version, finfo.Checksum)
	}
	res, err := fw.ProcessReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.LexiconVersion != "v7" {
		t.Errorf("result stamped %q, want v7", res.LexiconVersion)
	}
}

func TestReloadSuccess(t *testing.T) {
	fw := newTestFramework(t)
	path, finfo := packDefault(t, "v2-test")
	info, err := fw.Reload(context.Background(), path, ReloadOptions{ExpectedChecksum: finfo.Checksum})
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || info.Version != "v2-test" || info.Source != path {
		t.Errorf("reloaded info %+v", info)
	}
	if info.Checksum != finfo.Checksum {
		t.Errorf("checksum %q, file %q", info.Checksum, finfo.Checksum)
	}
	if got := fw.LexiconInfo(); got != info {
		t.Errorf("LexiconInfo %+v != reload result %+v", got, info)
	}
	res, err := fw.ProcessReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.LexiconEpoch != 2 || res.LexiconVersion != "v2-test" {
		t.Errorf("post-swap result stamped %d/%q", res.LexiconEpoch, res.LexiconVersion)
	}
	if res.Assigned == 0 {
		t.Error("post-swap pipeline assigned nothing")
	}
	st := fw.LexiconStats()
	if st.Swaps != 1 || st.Rollbacks != 0 || st.CanaryFailures != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.RetiredAwaitingDrain != 0 {
		t.Errorf("%d retired snapshots awaiting drain with no traffic in flight", st.RetiredAwaitingDrain)
	}
	if st.ReloadLatency.Count != 1 {
		t.Errorf("reload histogram count = %d", st.ReloadLatency.Count)
	}
}

// reloadFailure asserts the rollback contract: typed error, serving
// snapshot untouched, rollback counter advanced.
func reloadFailure(t *testing.T, fw *Framework, wantStage string, reload func() error) {
	t.Helper()
	before := fw.LexiconInfo()
	rollbacksBefore := fw.LexiconStats().Rollbacks
	err := reload()
	if err == nil {
		t.Fatal("reload succeeded, want failure")
	}
	if !errors.Is(err, xsdferrors.ErrReloadFailed) {
		t.Errorf("error %v does not match ErrReloadFailed", err)
	}
	var re *xsdferrors.ReloadError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *ReloadError", err)
	}
	if re.Stage != wantStage {
		t.Errorf("failed at stage %q, want %q", re.Stage, wantStage)
	}
	if after := fw.LexiconInfo(); after != before {
		t.Errorf("failed reload changed the serving snapshot: %+v -> %+v", before, after)
	}
	if got := fw.LexiconStats().Rollbacks; got != rollbacksBefore+1 {
		t.Errorf("rollbacks = %d, want %d", got, rollbacksBefore+1)
	}
	// The old snapshot must still serve correctly.
	res, err := fw.ProcessReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.LexiconEpoch != before.Epoch {
		t.Errorf("post-rollback run stamped epoch %d, want %d", res.LexiconEpoch, before.Epoch)
	}
}

func TestReloadMissingFile(t *testing.T) {
	fw := newTestFramework(t)
	reloadFailure(t, fw, "load", func() error {
		_, err := fw.Reload(context.Background(), filepath.Join(t.TempDir(), "nope.semnet"), ReloadOptions{})
		return err
	})
}

func TestReloadCorruptFile(t *testing.T) {
	fw := newTestFramework(t)
	path, _ := packDefault(t, "v2")
	truncateFile(t, path)
	reloadFailure(t, fw, "load", func() error {
		_, err := fw.Reload(context.Background(), path, ReloadOptions{})
		if err != nil && !errors.Is(err, xsdferrors.ErrMalformedInput) {
			t.Errorf("corrupt-codec failure %v should also match ErrMalformedInput", err)
		}
		return err
	})
}

func TestReloadChecksumMismatch(t *testing.T) {
	fw := newTestFramework(t)
	path, _ := packDefault(t, "v2")
	reloadFailure(t, fw, "load", func() error {
		_, err := fw.Reload(context.Background(), path, ReloadOptions{ExpectedChecksum: strings.Repeat("ab", 32)})
		return err
	})
}

func TestReloadValidateFailure(t *testing.T) {
	// A file that parses but violates the structural invariants:
	// non-positive concept frequency.
	b := semnet.NewBuilder()
	b.AddConcept("bad.n.01", "a broken concept", 0, "bad")
	net, err := b.Build()
	if err != nil {
		t.Skipf("builder rejected the fixture: %v", err)
	}
	path := filepath.Join(t.TempDir(), "bad.semnet")
	if _, err := semnet.WriteFile(path, net, "bad"); err != nil {
		t.Fatal(err)
	}
	fw := newTestFramework(t)
	reloadFailure(t, fw, "validate", func() error {
		_, err := fw.Reload(context.Background(), path, ReloadOptions{})
		return err
	})
}

func TestReloadInjectedFaults(t *testing.T) {
	cases := []struct {
		stage string
		cfg   faultinject.Config
	}{
		{"load", faultinject.Config{Seed: 1, ReloadLoadErrRate: 1}},
		{"validate", faultinject.Config{Seed: 1, ReloadValidateErrRate: 1}},
		{"canary", faultinject.Config{Seed: 1, ReloadCanaryErrRate: 1}},
	}
	for _, c := range cases {
		t.Run(c.stage, func(t *testing.T) {
			fw := newTestFramework(t)
			path, _ := packDefault(t, "v2")
			restore := faultinject.Install(faultinject.New(c.cfg))
			defer restore()
			canaryBefore := fw.LexiconStats().CanaryFailures
			reloadFailure(t, fw, c.stage, func() error {
				_, err := fw.Reload(context.Background(), path, ReloadOptions{})
				if err != nil && !errors.Is(err, faultinject.ErrInjectedReloadFault) {
					t.Errorf("error %v does not match ErrInjectedReloadFault", err)
				}
				return err
			})
			wantCanary := canaryBefore
			if c.stage == "canary" {
				wantCanary++
			}
			if got := fw.LexiconStats().CanaryFailures; got != wantCanary {
				t.Errorf("canary failures = %d, want %d", got, wantCanary)
			}
		})
	}
}

func TestReloadNetworkInMemory(t *testing.T) {
	fw := newTestFramework(t)
	net, err := wordnet.Generate(wordnet.DefaultGenerateConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	info, err := fw.ReloadNetwork(context.Background(), net, "synthetic-7", "generate(7)", ReloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || info.Version != "synthetic-7" || info.Source != "generate(7)" {
		t.Errorf("info %+v", info)
	}
	if fw.Network() != net {
		t.Error("Network() does not read through the swapped snapshot")
	}
	if _, err := fw.ReloadNetwork(context.Background(), nil, "", "", ReloadOptions{}); !errors.Is(err, xsdferrors.ErrReloadFailed) {
		t.Errorf("nil candidate: %v", err)
	}
}

// TestGoldenReuseAcrossIdenticalSwap is the byte-identical-swap clause:
// swapping to a lexicon with identical bytes must leave the gold-corpus
// output bit-identical, warm caches or cold.
func TestGoldenReuseAcrossIdenticalSwap(t *testing.T) {
	fw := newTestFramework(t)
	before := corpus.Generate(1)
	for _, d := range before {
		if _, err := fw.ProcessTree(d.Tree); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	path, finfo := packDefault(t, "")
	info, err := fw.Reload(context.Background(), path, ReloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Checksum != finfo.Checksum || info.Checksum != fw.LexiconInfo().Checksum {
		t.Errorf("identical-bytes swap changed the checksum: %+v", info)
	}
	after := corpus.Generate(1)
	for _, d := range after {
		res, err := fw.ProcessTree(d.Tree)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if res.LexiconEpoch != 2 {
			t.Errorf("%s: epoch %d, want 2", d.Name, res.LexiconEpoch)
		}
	}
	for i := range before {
		if got, want := senseFingerprint(after[i].Tree), senseFingerprint(before[i].Tree); got != want {
			t.Errorf("%s: output diverged across a byte-identical lexicon swap", before[i].Name)
		}
	}
}

func TestCanaryDocsGeneration(t *testing.T) {
	docs := canaryDocs(wordnet.Default())
	if len(docs) == 0 {
		t.Fatal("no probe docs for the embedded lexicon")
	}
	for _, d := range docs {
		if !strings.HasPrefix(d, "<probe>") || !strings.HasSuffix(d, "</probe>") {
			t.Errorf("malformed probe %q", d)
		}
	}
	// Synthetic vocabularies (w000-style lemmas) must still probe.
	net, err := wordnet.Generate(wordnet.DefaultGenerateConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(canaryDocs(net)) == 0 {
		t.Error("no probe docs for a synthetic lexicon")
	}
}

func truncateFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReloadEpochMonotone(t *testing.T) {
	fw := newTestFramework(t)
	for i := 0; i < 3; i++ {
		path, _ := packDefault(t, fmt.Sprintf("v%d", i+2))
		info, err := fw.Reload(context.Background(), path, ReloadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Epoch != uint64(i+2) {
			t.Errorf("swap %d: epoch %d", i, info.Epoch)
		}
	}
	if st := fw.LexiconStats(); st.Swaps != 3 {
		t.Errorf("swaps = %d", st.Swaps)
	}
}
