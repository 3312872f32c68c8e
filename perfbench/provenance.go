package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Provenance records what produced a result, read at runtime.
type Provenance struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	HeldOutSeed int64          `json:"held_out_seed"`
	Seconds     int            `json:"seconds"`
	Traced      bool           `json:"traced"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	Commit      string         `json:"commit"`
	SourceHash  string         `json:"source_sha256"`
	Config      Workload       `json:"config"`
	Sizes       map[string]int `json:"sizes"`
}

func provenance(w Workload, seed int64, seconds int, traced bool, sizes map[string]int) Provenance {
	return Provenance{
		Workload:    w.Name,
		Seed:        seed,
		HeldOutSeed: HeldOutSeed,
		Seconds:     seconds,
		Traced:      traced,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Commit:      commit(),
		SourceHash:  sourceHash("."),
		Config:      w,
		Sizes:       sizes,
	}
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod file under root, the
// working directory of a run (the checkout), skipping dot-directories such
// as the build directory. A result thus names the code it ran even where no
// VCS revision is available. It returns "" if root is unreadable.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return ""
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return ""
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
