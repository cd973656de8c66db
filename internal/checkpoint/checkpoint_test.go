package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Dataset: "purchase100", Round: 7, State: []float64{1, 2.5, -3}}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != "purchase100" || got.Round != 7 || got.Version != FormatVersion {
		t.Fatalf("round trip: %+v", got)
	}
	for i, v := range s.State {
		if got.State[i] != v {
			t.Fatal("state corrupted")
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Fatal("accepted nil snapshot")
	}
	if err := Save(&buf, &Snapshot{}); err == nil {
		t.Fatal("accepted empty state")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestSnapshotVersionCheck(t *testing.T) {
	// Save always stamps FormatVersion, so hand-build an envelope whose
	// CRC-valid payload claims version 99.
	type raw Snapshot
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&raw{Version: 99, Dataset: "d", Round: 1, State: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindSnapshot, 0, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("accepted unknown version")
	}
}

// TestBareGobRejected pins the end of the v1 format: a bare-gob snapshot
// is refused as corrupt instead of decoded.
func TestBareGobRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Snapshot{Version: 1, Dataset: "d", Round: 1, State: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bare gob snapshot: got %v, want ErrCorrupt", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "global.ckpt")
	s := &Snapshot{Dataset: "texas100", Round: 3, State: []float64{9, 8}}
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 3 || got.State[1] != 8 {
		t.Fatalf("file round trip: %+v", got)
	}
	// Temp file must not remain.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("loaded missing file")
	}
}

func TestPrivateLayersRoundTrip(t *testing.T) {
	p := &PrivateLayers{
		ClientID: 2,
		Layers:   map[int][]float64{4: {1, 2, 3}, 5: {4}},
	}
	var buf bytes.Buffer
	if err := SavePrivate(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrivate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != 2 || len(got.Layers) != 2 || got.Layers[4][2] != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPrivateLayersValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePrivate(&buf, nil); err == nil {
		t.Fatal("accepted nil store")
	}
	if err := SavePrivate(&buf, &PrivateLayers{ClientID: 1}); err == nil {
		t.Fatal("accepted empty store")
	}
	if _, err := LoadPrivate(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestPrivateLayersFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "private.ckpt")
	p := &PrivateLayers{ClientID: 0, Layers: map[int][]float64{4: {7, 7}}}
	if err := SavePrivateFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPrivateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[4][0] != 7 {
		t.Fatalf("file round trip: %+v", got)
	}
	if _, err := LoadPrivateFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("loaded missing file")
	}
}
