// Package checkpoint persists federated-learning state so middleware
// processes can stop and resume: the server's global model snapshot (plus
// the quarantine state of the Byzantine update screen), and — specific to
// DINAR — each client's private-layer store, whose loss would otherwise
// cost the client its personalization (θᵖ* is never on the server, by
// design).
//
// Format v2 is a CRC32-checksummed binary envelope around a gob payload,
// and the only format read; v1 files (bare gob) are refused as corrupt.
// The file helpers write
// durably — fsync on the file and its parent directory around the atomic
// rename — and chain generations: every save rotates the previous newest
// file into a ".g<generation>" sibling, retaining the last DefaultRetain
// generations, so LoadLatestValid can detect a torn or corrupted head and
// fall back to the newest intact generation.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// FormatVersion is the current on-disk format version.
const FormatVersion = 2

// QuarantineState checkpoints the Byzantine update screen so quarantine
// penalties and offense counts survive a server restart (a poisoner must
// not be paroled by crashing the server).
type QuarantineState struct {
	// Offenses counts rejected updates per client id.
	Offenses map[int]int
	// BlockedUntil maps a quarantined client id to the last round
	// (inclusive) its updates are excluded.
	BlockedUntil map[int]int
	// Norms is the running window of accepted delta norms backing the
	// clip/reject bound.
	Norms []float64
}

// Snapshot is a server-side global-model checkpoint.
type Snapshot struct {
	// Version is the format version (set by Save).
	Version int
	// Generation is the position in the checkpoint chain (set by SaveFile;
	// 0 for stream saves).
	Generation uint64
	// Dataset names the dataset/model configuration the state belongs to.
	Dataset string
	// Round is the number of completed FL rounds.
	Round int
	// State is the global model state vector.
	State []float64
	// Quarantine is the update screen's reputation state at Round, nil
	// when screening is disabled.
	Quarantine *QuarantineState

	// SampleSeed and SampleSize record the per-round client-sampling
	// configuration, so a resumed server draws bit-identical cohorts for
	// the remaining rounds (zero when sampling is off or in older files;
	// gob leaves absent fields at their zero value, so the format version
	// is unchanged).
	SampleSeed int64
	SampleSize int
	// Async holds updates that arrived after their round closed and were
	// buffered for staleness-weighted aggregation in a later round. Saved
	// on graceful drain so crash-resume replays them; nil when async mode
	// is off.
	Async []AsyncUpdate
	// StreamNorms is the streaming norm-bound aggregator's trailing
	// accepted-norm window (nil unless that aggregator is active).
	StreamNorms []float64
	// Wire records the server's negotiated-codec configuration and the
	// last canonical broadcast state, so a resumed server keeps honoring
	// in-flight codec negotiations: the quantization seed stays stable
	// (clients reconstruct with it) and the broadcast delta chain resumes
	// from the exact state still-running clients hold. Nil when the server
	// offers no payload codecs (plain binary frames), and in older files.
	Wire *WireState
}

// WireState is the wire-codec portion of a Snapshot.
type WireState struct {
	// Compress, Quantize, TopK, and Delta mirror the ServerConfig codec
	// offer the checkpoint was written under.
	Compress bool
	Quantize string
	TopK     float64
	Delta    bool
	// QuantSeed seeds stochastic quantization; a resumed server adopts it
	// (and refuses a conflicting configured seed) the way SampleSeed works.
	QuantSeed int64
	// BcastRound/Bcast are the round and full state of the last canonical
	// broadcast — the delta/quantization anchor clients hold — so the
	// resumed server's broadcast ring can diff against it.
	BcastRound int
	Bcast      []float64
}

// AsyncUpdate is one buffered late update in a Snapshot.
type AsyncUpdate struct {
	// ClientID is the sender.
	ClientID int
	// Round is the round the update was trained against.
	Round int
	// NumSamples is the sender's local-dataset weight.
	NumSamples int
	// State is the uploaded state vector.
	State []float64
}

// encodeSnapshot gob-encodes the normalized snapshot payload.
func encodeSnapshot(s *Snapshot, gen uint64) ([]byte, error) {
	if s == nil || len(s.State) == 0 {
		return nil, fmt.Errorf("checkpoint: empty snapshot")
	}
	out := *s
	out.Version = FormatVersion
	out.Generation = gen
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot decodes and validates a gob snapshot payload.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", s.Version)
	}
	if len(s.State) == 0 {
		return nil, fmt.Errorf("checkpoint: snapshot has no state")
	}
	return &s, nil
}

// Save writes the snapshot to w as a v2 envelope.
func Save(w io.Writer, s *Snapshot) error {
	var gen uint64
	if s != nil {
		gen = s.Generation
	}
	payload, err := encodeSnapshot(s, gen)
	if err != nil {
		return err
	}
	return writeEnvelope(w, kindSnapshot, gen, payload)
}

// Load reads a CRC-verified v2 snapshot envelope from r.
func Load(r io.Reader) (*Snapshot, error) {
	gen, payload, err := readEnvelope(r, kindSnapshot)
	if err != nil {
		return nil, err
	}
	s, err := decodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	s.Generation = gen
	return s, nil
}

// SaveFile writes the snapshot durably at the head of the checkpoint chain
// at path (atomic rename, fsync on file and directory), rotating the
// previous newest generation into a ".g<gen>" sibling and retaining the
// last DefaultRetain generations.
func SaveFile(path string, s *Snapshot) error {
	return saveChain(path, kindSnapshot, func(gen uint64) ([]byte, error) {
		return encodeSnapshot(s, gen)
	})
}

// LoadFile reads the snapshot at path.
func LoadFile(path string) (*Snapshot, error) { return loadFile(path, Load) }

// loadFile reads the file at path with load.
func loadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return load(f)
}

// LoadLatestValid walks the checkpoint chain at path newest-first and
// returns the first snapshot that decodes and CRC-verifies, plus the paths
// of corrupt files skipped on the way. A missing chain reports
// os.ErrNotExist; a chain with no intact generation reports every failure.
func LoadLatestValid(path string) (snap *Snapshot, skipped []string, err error) {
	skipped, err = loadLatestValid(path, func(cand string) (derr error) {
		snap, derr = LoadFile(cand)
		return derr
	})
	return snap, skipped, err
}

// PrivateLayers is a client-side checkpoint of DINAR's private-layer store
// (θᵖ* per protected layer).
type PrivateLayers struct {
	// Version is the format version (set by SavePrivate).
	Version int
	// Generation is the position in the checkpoint chain (set by
	// SavePrivateFile; 0 for stream saves).
	Generation uint64
	// ClientID identifies the owning client.
	ClientID int
	// Round is the last round the stored layers belong to.
	Round int
	// Layers maps logical layer index to the stored parameters.
	Layers map[int][]float64
}

// encodePrivate gob-encodes the normalized private-store payload.
func encodePrivate(p *PrivateLayers, gen uint64) ([]byte, error) {
	if p == nil || len(p.Layers) == 0 {
		return nil, fmt.Errorf("checkpoint: empty private store")
	}
	out := *p
	out.Version = FormatVersion
	out.Generation = gen
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
		return nil, fmt.Errorf("checkpoint: encode private store: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePrivate decodes and validates a gob private-store payload.
func decodePrivate(payload []byte) (*PrivateLayers, error) {
	var p PrivateLayers
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("checkpoint: decode private store: %w", err)
	}
	if p.Version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", p.Version)
	}
	if len(p.Layers) == 0 {
		return nil, fmt.Errorf("checkpoint: private store has no layers")
	}
	return &p, nil
}

// SavePrivate writes a private-layer store to w as a v2 envelope.
func SavePrivate(w io.Writer, p *PrivateLayers) error {
	var gen uint64
	if p != nil {
		gen = p.Generation
	}
	payload, err := encodePrivate(p, gen)
	if err != nil {
		return err
	}
	return writeEnvelope(w, kindPrivate, gen, payload)
}

// LoadPrivate reads a CRC-verified v2 private-store envelope from r.
func LoadPrivate(r io.Reader) (*PrivateLayers, error) {
	gen, payload, err := readEnvelope(r, kindPrivate)
	if err != nil {
		return nil, err
	}
	p, err := decodePrivate(payload)
	if err != nil {
		return nil, err
	}
	p.Generation = gen
	return p, nil
}

// SavePrivateFile writes a private-layer store durably at the head of the
// chain at path, like SaveFile.
func SavePrivateFile(path string, p *PrivateLayers) error {
	return saveChain(path, kindPrivate, func(gen uint64) ([]byte, error) {
		return encodePrivate(p, gen)
	})
}

// LoadPrivateFile reads the private-layer store at path.
func LoadPrivateFile(path string) (*PrivateLayers, error) { return loadFile(path, LoadPrivate) }

// LoadLatestValidPrivate walks the private-store chain at path newest-first
// like LoadLatestValid.
func LoadLatestValidPrivate(path string) (priv *PrivateLayers, skipped []string, err error) {
	skipped, err = loadLatestValid(path, func(cand string) (derr error) {
		priv, derr = LoadPrivateFile(cand)
		return derr
	})
	return priv, skipped, err
}
