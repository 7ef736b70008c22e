package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/vfs"
)

// envStamp goes into every output file, so a number can always be traced
// to the machine, the commit and the inputs that produced it.
type envStamp struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GOGC       string         `json:"gogc"`
	GoVersion  string         `json:"go_version"`
	GitSHA     string         `json:"git_sha"`
	TempDir    string         `json:"temp_dir"`
	TempDirFS  string         `json:"temp_dir_fs"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Scale      float64        `json:"scale"`
	OpCounts   map[string]int `json:"op_counts"`
	Records    map[string]int `json:"records"`
	Engine     map[string]any `json:"engine"`
	AutoPolicy string         `json:"auto_override,omitempty"` // set only by -auto: not a gated configuration
	Caveat     string         `json:"caveat"`
}

const sandboxCaveat = "Table reads are served from the OS page cache and flushes are cheap here, so latencies are this sandbox's, not a device's; vfs.* counts and computed bytes do transfer."

// pinProcs pins GOMAXPROCS to min(nproc, 2): no workload uses more
// threads than that, and the number is recorded in the stamp.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}

func newEnvStamp(cfg runConfig) envStamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	e := envStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		TempDir:    cfg.dir,
		TempDirFS:  fsType(cfg.dir),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		OpCounts:   map[string]int{},
		Records:    map[string]int{},
		Engine: map[string]any{
			"memtable_bytes": memtableBytes, "live_picker": livePolicy, "fan_in": fanIn,
			"sync_wal": false, "background_compaction": false, "key_bytes": keyLen, "value_bytes": valueLen,
		},
		Caveat: sandboxCaveat,
	}
	if cfg.auto != livePolicy {
		e.AutoPolicy = cfg.auto
	}
	for _, w := range workloads {
		e.OpCounts[w.name] = cfg.runOps(w)
		e.Records[w.name] = w.scaled(cfg.scale).records
	}
	return e
}

func cpuModel() string {
	data, err := vfs.Default.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit from the nearest .git directory
// without running git; the benchmark driver's checkouts have none.
func gitSHA() string {
	dir, err := filepath.Abs(".")
	if err != nil {
		return "unknown"
	}
	for {
		head, err := vfs.Default.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if sha, err := vfs.Default.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			packed, _ := vfs.Default.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

var fsMagic = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	for dir != "" {
		if err := syscall.Statfs(dir, &st); err == nil {
			if name, ok := fsMagic[int64(st.Type)]; ok {
				return name
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return "unknown"
}
