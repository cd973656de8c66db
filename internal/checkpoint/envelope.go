package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Format v2 wraps the gob payload in a binary envelope so torn or bit-rotted
// files are *detected* instead of half-decoded:
//
//	magic   [4]byte  "DNCK"
//	version uint8    (2)
//	kind    uint8    (1 = server snapshot, 2 = private-layer store)
//	gen     uint64   generation number, big-endian
//	length  uint32   payload byte count, big-endian
//	crc32   uint32   IEEE CRC of the payload, big-endian
//	payload []byte   gob-encoded Snapshot / PrivateLayers
//
// Files are written atomically (temp + rename) and durably (fsync on the
// file and its parent directory), and each save rotates the previous newest
// file into a ".g<generation>" sibling so LoadLatestValid can fall back to
// the newest intact generation when the head of the chain is corrupt.

// envelope constants.
const (
	envMagic      = "DNCK"
	envHeaderSize = 4 + 1 + 1 + 8 + 4 + 4

	kindSnapshot byte = 1
	kindPrivate  byte = 2

	// maxPayloadBytes bounds a payload against corrupt length fields
	// (1 GiB is far above any scaled model's state vector).
	maxPayloadBytes = 1 << 30
)

// DefaultRetain is how many checkpoint generations the chained file helpers
// keep on disk: the newest (at the configured path) plus DefaultRetain-1
// ".g<gen>" predecessors.
const DefaultRetain = 3

// ErrCorrupt wraps every integrity failure detected on a v2 envelope (bad
// magic, truncated header or payload, CRC mismatch), so callers can
// distinguish corruption from absence.
var ErrCorrupt = errors.New("checkpoint: corrupt envelope")

// writeEnvelope frames payload as a v2 envelope.
func writeEnvelope(w io.Writer, kind byte, gen uint64, payload []byte) error {
	if len(payload) == 0 || len(payload) > maxPayloadBytes {
		return fmt.Errorf("checkpoint: payload length %d out of range", len(payload))
	}
	var hdr [envHeaderSize]byte
	copy(hdr[:4], envMagic)
	hdr[4] = FormatVersion
	hdr[5] = kind
	binary.BigEndian.PutUint64(hdr[6:14], gen)
	binary.BigEndian.PutUint32(hdr[14:18], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[18:22], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: write payload: %w", err)
	}
	return nil
}

// readEnvelope parses one v2 envelope of the wanted kind, verifying the CRC
// before the payload reaches any decoder.
func readEnvelope(r io.Reader, wantKind byte) (gen uint64, payload []byte, err error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	if string(head[:]) != envMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:])
	}
	var rest [envHeaderSize - 4]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if rest[0] != FormatVersion {
		return 0, nil, fmt.Errorf("checkpoint: unsupported version %d", rest[0])
	}
	if rest[1] != wantKind {
		return 0, nil, fmt.Errorf("%w: kind %d, want %d", ErrCorrupt, rest[1], wantKind)
	}
	gen = binary.BigEndian.Uint64(rest[2:10])
	n := binary.BigEndian.Uint32(rest[10:14])
	if n == 0 || n > maxPayloadBytes {
		return 0, nil, fmt.Errorf("%w: payload length %d out of range", ErrCorrupt, n)
	}
	sum := binary.BigEndian.Uint32(rest[14:18])
	// Read incrementally instead of pre-allocating n bytes: a corrupt
	// length field must not cost a giant allocation when the file is
	// actually tiny.
	payload, err = io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
	}
	if uint32(len(payload)) != n {
		return 0, nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}
	return gen, payload, nil
}

// --- durable file plumbing ---------------------------------------------

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeDurable writes data to path atomically (temp + rename) and durably
// (fsync on the temp file, then on the parent directory after the rename).
func writeDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// --- generation chain ---------------------------------------------------

// genPath names the retained copy of generation gen of the chain at path.
func genPath(path string, gen uint64) string {
	return fmt.Sprintf("%s.g%09d", path, gen)
}

// generationOf parses the generation from a ".g<gen>" sibling name; ok is
// false for the head file or unrelated names.
func generationOf(path, name string) (uint64, bool) {
	prefix := filepath.Base(path) + ".g"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// headerGen reads just the envelope header of path and returns its
// generation; ok is false for missing or unreadable-header files.
func headerGen(path string, wantKind byte) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var hdr [envHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, false
	}
	if string(hdr[:4]) != envMagic || hdr[4] != FormatVersion || hdr[5] != wantKind {
		return 0, false
	}
	return binary.BigEndian.Uint64(hdr[6:14]), true
}

// siblingGenerations lists the generation numbers of retained ".g<gen>"
// files of the chain at path, ascending.
func siblingGenerations(path string) []uint64 {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := generationOf(path, e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// nextGeneration picks the generation for the next save: one past the
// newest generation visible anywhere in the chain (head or siblings).
func nextGeneration(path string, kind byte) uint64 {
	var newest uint64
	if gen, ok := headerGen(path, kind); ok && gen > newest {
		newest = gen
	}
	if gens := siblingGenerations(path); len(gens) > 0 {
		if g := gens[len(gens)-1]; g > newest {
			newest = g
		}
	}
	return newest + 1
}

// saveChain writes one new generation at the head of the chain: the
// previous head is rotated into its ".g<gen>" sibling, the new envelope is
// written durably, and generations beyond DefaultRetain are pruned.
// encode receives the chosen generation so the payload can embed it.
func saveChain(path string, kind byte, encode func(gen uint64) ([]byte, error)) error {
	gen := nextGeneration(path, kind)
	payload, err := encode(gen)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kind, gen, payload); err != nil {
		return err
	}
	// Rotate the previous head so it survives as a fallback generation. A
	// corrupt head (no readable generation) is preserved under gen-1 rather
	// than overwritten.
	if prevGen, ok := headerGen(path, kind); ok {
		if err := os.Rename(path, genPath(path, prevGen)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checkpoint: rotate: %w", err)
		}
	} else if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, genPath(path, gen-1)); err != nil {
			return fmt.Errorf("checkpoint: rotate unreadable head: %w", err)
		}
	}
	if err := writeDurable(path, buf.Bytes()); err != nil {
		return err
	}
	pruneGenerations(path, DefaultRetain)
	return nil
}

// pruneGenerations removes retained sibling files beyond retain-1 (the head
// file at path is the retain-th generation). Best effort: a failed unlink
// never fails a save.
func pruneGenerations(path string, retain int) {
	gens := siblingGenerations(path)
	keep := retain - 1
	if keep < 0 {
		keep = 0
	}
	if len(gens) <= keep {
		return
	}
	for _, gen := range gens[:len(gens)-keep] {
		os.Remove(genPath(path, gen)) //nolint:errcheck // best-effort prune
	}
}

// chainCandidates lists the files of the chain at path to try when
// loading, newest first: the head, then retained generations descending.
func chainCandidates(path string) []string {
	out := []string{path}
	gens := siblingGenerations(path)
	for i := len(gens) - 1; i >= 0; i-- {
		out = append(out, genPath(path, gens[i]))
	}
	return out
}

// loadLatestValid walks the chain newest-first and returns the first file
// that decodes and validates, plus the paths of the corrupt files it
// skipped. When no file of the chain exists at all the error wraps
// os.ErrNotExist; when files exist but none is intact the error reports
// every failure.
func loadLatestValid(path string, decode func(string) error) (skipped []string, err error) {
	var errs []error
	tried := 0
	for _, cand := range chainCandidates(path) {
		derr := decode(cand)
		if derr == nil {
			return skipped, nil
		}
		if errors.Is(derr, os.ErrNotExist) {
			continue
		}
		tried++
		skipped = append(skipped, cand)
		errs = append(errs, fmt.Errorf("%s: %w", cand, derr))
	}
	if tried == 0 {
		return nil, fmt.Errorf("checkpoint: no checkpoint at %s: %w", path, os.ErrNotExist)
	}
	return skipped, fmt.Errorf("checkpoint: no intact generation at %s: %w", path, errors.Join(errs...))
}
