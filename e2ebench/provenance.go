package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance ties a result to the code, host and inputs that produced it.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	ConfigSHA256 string `json:"config_sha256"`
	Config       any    `json:"config"`
}

func newProvenance(root, workload string, seed int64, cfg any) provenance {
	return provenance{
		Workload:     workload,
		Seed:         seed,
		Commit:       vcsRevision(),
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		ConfigSHA256: configDigest(cfg),
		Config:       cfg,
	}
}

// vcsRevision is the commit the binary was built from, when the build saw
// a version-control checkout ("unknown" otherwise; sourceDigest still
// identifies the code).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source, assembly file and go.mod under root
// (skipping hidden and build directories) in path order: two checkouts
// with the same digest build the same program.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".mod":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
