package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/pe"
)

// DiskStats is a point-in-time snapshot of the disk artifact cache.
type DiskStats struct {
	Dir     string `json:"dir"`
	Hits    int64  `json:"hits"`
	Writes  int64  `json:"writes"`
	Errors  int64  `json:"errors"`
	Entries int    `json:"entries"`
}

// diskCache persists compiled artifacts across restarts: one JSON file
// per fingerprint under a directory named by the toolchain hash, so a
// replica that restarts warms its in-memory cache from disk instead of
// stampeding the compiler, while artifacts written by an incompatible
// compiler generation are invisible by construction (different
// directory) and artifacts with a tampered or stale version field are
// rejected and removed on read.
//
// Crash safety: files are written to a temporary name in the same
// directory and atomically renamed into place, so a reader never
// observes a partial artifact; leftover temporaries from a crash are
// swept at open. A file that fails to parse or to load is treated as a
// miss and deleted — the worst outcome of any disk corruption is one
// recompile.
type diskCache struct {
	dir string // versioned directory all artifacts live in

	hits, writes, errors atomic.Int64
}

// diskArtifact is the on-disk format. Toolchain repeats the directory's
// version so a file copied across versioned directories (or a directory
// renamed by hand) still cannot smuggle a stale format past the loader.
type diskArtifact struct {
	Toolchain   string      `json:"toolchain"`
	Fingerprint string      `json:"fingerprint"`
	Object      *isa.Object `json:"object"`
}

// openDiskCache prepares the versioned artifact directory under root,
// sweeping temporaries left by a crashed writer.
func openDiskCache(root string) (*diskCache, error) {
	dir := filepath.Join(root, "v-"+compile.ToolchainHash()[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact cache dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &diskCache{dir: dir}, nil
}

func (d *diskCache) path(fp string) string {
	return filepath.Join(d.dir, fp+".json")
}

// get reads the object for fp from disk and loads it with
// pe.LoadProgram, the check every program passes before the memory tier
// holds it. Any failure — missing file, parse error, version mismatch,
// an object that fails to load — is a miss; rejected files are removed
// so they fail only once.
func (d *diskCache) get(fp string) (*pe.Program, bool) {
	blob, err := os.ReadFile(d.path(fp))
	if err != nil {
		return nil, false
	}
	var da diskArtifact
	if err := json.Unmarshal(blob, &da); err != nil {
		d.drop(fp)
		return nil, false
	}
	if da.Toolchain != compile.ToolchainHash() || da.Fingerprint != fp || da.Object == nil {
		d.drop(fp)
		return nil, false
	}
	da.Object.TrimCode()
	prog, err := pe.LoadProgram(da.Object)
	if err != nil {
		d.drop(fp)
		return nil, false
	}
	d.hits.Add(1)
	return prog, true
}

// drop removes a rejected file, charging the error counter.
func (d *diskCache) drop(fp string) {
	d.errors.Add(1)
	os.Remove(d.path(fp))
}

// put persists an object program. Failures are counted but never
// surfaced: the disk tier is an optimization, and a request that compiled
// successfully must not fail because the cache volume is full.
func (d *diskCache) put(fp string, obj *isa.Object) {
	blob, err := json.Marshal(diskArtifact{
		Toolchain:   compile.ToolchainHash(),
		Fingerprint: fp,
		Object:      obj,
	})
	if err != nil {
		d.errors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		d.errors.Add(1)
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), d.path(fp)); err != nil {
		os.Remove(tmp.Name())
		d.errors.Add(1)
		return
	}
	d.writes.Add(1)
}

// stats snapshots the counters, counting resident artifacts on demand
// (the directory is one readdir; /statsz is not a hot path).
func (d *diskCache) stats() DiskStats {
	st := DiskStats{
		Dir:    d.dir,
		Hits:   d.hits.Load(),
		Writes: d.writes.Load(),
		Errors: d.errors.Load(),
	}
	if entries, err := os.ReadDir(d.dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				st.Entries++
			}
		}
	}
	return st
}
