package semnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/xsdferrors"
)

// This file makes codec files a trustworthy unit of deployment. A plain
// Save/Load round-trip is fine for interactive use, but a daemon that
// hot-swaps its lexicon must never trust "whatever parses": a file
// truncated by a crashed writer or a partial copy still parses as a
// smaller, silently wrong network. WriteFile therefore appends a
// checksum footer and publishes via temp-file + fsync + atomic rename,
// and ReadFile refuses anything whose bytes do not hash to the footer —
// truncation, trailing garbage, and bit rot all surface as typed
// ErrMalformedInput-family errors instead of quietly degraded scores.

// footerPrefix starts the footer line. The footer is a '#' comment, so
// files written by WriteFile stay loadable by the lenient Load.
const footerPrefix = "# xsdf-lexicon-footer "

// FileInfo identifies one checksummed codec file: the identity the
// daemon reports on /statusz after swapping the file in.
type FileInfo struct {
	// Checksum is the hex SHA-256 of the content bytes above the footer.
	Checksum string
	// Version is the operator-chosen version label recorded at pack time
	// ("sha-<prefix>" when none was given).
	Version string
	// Concepts is the concept count recorded in the footer.
	Concepts int
}

// Checksum returns the hex SHA-256 of the network's canonical Save
// bytes, computed once and memoized. For a network loaded via ReadFile
// this is not necessarily the file checksum (edge materialization can
// reorder emission); use the FileInfo for file identity and this for
// in-memory identity (e.g. the embedded lexicon).
func (n *Network) Checksum() string {
	n.checksumOnce.Do(func() {
		h := sha256.New()
		// Save into a hash never fails: the writer cannot error.
		_ = n.Save(h)
		n.checksum = hex.EncodeToString(h.Sum(nil))
	})
	return n.checksum
}

// VersionLabel derives the version label WriteFile records when the
// operator supplies none: "sha-" plus a checksum prefix.
func VersionLabel(checksum string) string {
	if len(checksum) > 12 {
		checksum = checksum[:12]
	}
	return "sha-" + checksum
}

// WriteFile publishes the network to path crash-safely: the codec bytes
// plus a checksum footer are written to a temp file in the target
// directory, fsynced, and atomically renamed into place, so readers see
// either the old file or the complete new one — never a torn write. An
// empty version derives a "sha-<prefix>" label; whitespace in the label
// is folded to '-' (the footer is line-oriented). A network the codec
// cannot carry (see encodeError) is refused before anything is written.
func WriteFile(path string, n *Network, version string) (FileInfo, error) {
	if err := n.encodeError(); err != nil {
		return FileInfo{}, fmt.Errorf("semnet: write %s: %w", path, err)
	}
	var content bytes.Buffer
	if err := n.Save(&content); err != nil {
		return FileInfo{}, fmt.Errorf("semnet: write %s: %w", path, err)
	}
	sum := sha256.Sum256(content.Bytes())
	info := FileInfo{
		Checksum: hex.EncodeToString(sum[:]),
		Version:  strings.Join(strings.Fields(version), "-"),
		Concepts: n.Len(),
	}
	if info.Version == "" {
		info.Version = VersionLabel(info.Checksum)
	}
	fmt.Fprintf(&content, "%ssha256=%s version=%s concepts=%d\n",
		footerPrefix, info.Checksum, info.Version, info.Concepts)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".lexicon-*.tmp")
	if err != nil {
		return FileInfo{}, fmt.Errorf("semnet: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(content.Bytes()); err != nil {
		tmp.Close()
		return FileInfo{}, fmt.Errorf("semnet: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return FileInfo{}, fmt.Errorf("semnet: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return FileInfo{}, fmt.Errorf("semnet: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return FileInfo{}, fmt.Errorf("semnet: publish %s: %w", path, err)
	}
	// Persist the rename itself. Directory fsync is advisory on some
	// filesystems; a failure here cannot un-publish the file.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return info, nil
}

// malformed wraps a file-integrity failure so it matches
// xsdferrors.ErrMalformedInput under errors.Is.
func malformed(path, format string, args ...any) error {
	return fmt.Errorf("semnet: %s: %s: %w", path, fmt.Sprintf(format, args...), xsdferrors.ErrMalformedInput)
}

// ReadFile loads a checksummed codec file written by WriteFile. It
// requires the footer to be the final line and the content above it to
// hash to the recorded checksum, rejecting truncated files, trailing
// garbage, and corrupted bytes with ErrMalformedInput-family errors
// before any of the content is trusted. Structural validation is the
// caller's next step (VerifyFile bundles both).
func ReadFile(path string) (*Network, FileInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, FileInfo{}, fmt.Errorf("semnet: read %s: %w", path, err)
	}
	info, content, err := splitFooter(path, data)
	if err != nil {
		return nil, FileInfo{}, err
	}
	sum := sha256.Sum256(content)
	if got := hex.EncodeToString(sum[:]); got != info.Checksum {
		return nil, FileInfo{}, malformed(path, "checksum mismatch: content hashes to %s, footer records %s (truncated or corrupted file)", got, info.Checksum)
	}
	var n *Network
	b, err := parse(string(content))
	if err == nil {
		n, err = b.Build()
	}
	if err != nil {
		return nil, FileInfo{}, fmt.Errorf("semnet: %s: %w", path, err)
	}
	if n.Len() != info.Concepts {
		return nil, FileInfo{}, malformed(path, "footer records %d concepts, content holds %d", info.Concepts, n.Len())
	}
	n.file = &info
	return n, info, nil
}

// File returns the identity of the codec file ReadFile read the network
// from, and false for a network built in memory (embedded, generated, or
// loaded from a stream).
func (n *Network) File() (FileInfo, bool) {
	if n.file == nil {
		return FileInfo{}, false
	}
	return *n.file, true
}

// encodeError names the first field of the network that Save cannot
// write so that Load reads it back, or returns nil. Records end at a
// newline and fields at a tab, lemmas are joined by '|', and the reader
// drops one carriage return before each newline, so a gloss (the last
// field of a concept line) and a concept id (the last field of a
// relation line) must not end in one. Save writes a related edge from
// the lower id only, so a concept's related edge to itself is not
// written at all, and it writes no relation it has no name for.
func (n *Network) encodeError() error {
	for d := range n.concepts {
		c := &n.concepts[d]
		switch {
		case strings.ContainsAny(string(c.ID), "\t\n"):
			return fmt.Errorf("concept %q: id contains a tab or a newline", c.ID)
		case strings.HasSuffix(string(c.ID), "\r"):
			return fmt.Errorf("concept %q: id ends in a carriage return", c.ID)
		case strings.ContainsAny(c.Gloss, "\t\n"):
			return fmt.Errorf("concept %q: gloss contains a tab or a newline", c.ID)
		case strings.HasSuffix(c.Gloss, "\r"):
			return fmt.Errorf("concept %q: gloss ends in a carriage return", c.ID)
		}
		for _, l := range c.Lemmas {
			if strings.ContainsAny(l, "|\t\n") {
				return fmt.Errorf("concept %q: lemma %q contains '|', a tab or a newline", c.ID, l)
			}
		}
		for _, e := range n.edgesD[d] {
			switch {
			case e.Rel >= numRelations:
				return fmt.Errorf("concept %q: edge of unnamed %v", c.ID, e.Rel)
			case e.Rel == Related && e.To == DenseID(d):
				return fmt.Errorf("concept %q: related edge to itself", c.ID)
			}
		}
	}
	return nil
}

// splitFooter locates and parses the footer, which must be the file's
// final, newline-terminated line.
func splitFooter(path string, data []byte) (FileInfo, []byte, error) {
	if len(data) == 0 {
		return FileInfo{}, nil, malformed(path, "empty file")
	}
	if data[len(data)-1] != '\n' {
		return FileInfo{}, nil, malformed(path, "missing final newline (truncated file or trailing garbage)")
	}
	idx := bytes.LastIndexByte(data[:len(data)-1], '\n')
	last := string(data[idx+1 : len(data)-1])
	if !strings.HasPrefix(last, footerPrefix) {
		return FileInfo{}, nil, malformed(path, "missing checksum footer (unchecksummed, truncated, or garbage-appended file)")
	}
	var info FileInfo
	for _, field := range strings.Fields(last[len(footerPrefix):]) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return FileInfo{}, nil, malformed(path, "bad footer field %q", field)
		}
		switch key {
		case "sha256":
			if len(val) != hex.EncodedLen(sha256.Size) {
				return FileInfo{}, nil, malformed(path, "bad footer checksum %q", val)
			}
			info.Checksum = val
		case "version":
			info.Version = val
		case "concepts":
			nc, err := strconv.Atoi(val)
			if err != nil || nc < 0 {
				return FileInfo{}, nil, malformed(path, "bad footer concept count %q", val)
			}
			info.Concepts = nc
		default:
			return FileInfo{}, nil, malformed(path, "unknown footer field %q", field)
		}
	}
	if info.Checksum == "" {
		return FileInfo{}, nil, malformed(path, "footer lacks a sha256 field")
	}
	return info, data[:idx+1], nil
}

// VerifyFile is the offline trust check: codec integrity (ReadFile) plus
// the structural invariants (Validate) — exactly the checks the daemon's
// reload pipeline applies before a canary, so the printed identity is
// the one a successful swap will report.
func VerifyFile(path string) (FileInfo, error) {
	n, info, err := ReadFile(path)
	if err != nil {
		return FileInfo{}, err
	}
	if err := n.Validate(); err != nil {
		return info, fmt.Errorf("semnet: %s: %w", path, err)
	}
	return info, nil
}
