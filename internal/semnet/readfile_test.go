package semnet_test

import (
	"path/filepath"
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

// writeEmbedded writes the embedded lexicon as a checksummed codec file.
func writeEmbedded(tb testing.TB) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "lexicon.semnet")
	if _, err := semnet.WriteFile(path, wordnet.Default(), "bench"); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkReadFile reads the embedded lexicon's codec file: checksum,
// parse and Build, the load stage of every reload and set-up.
func BenchmarkReadFile(b *testing.B) {
	path := writeEmbedded(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := semnet.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
