package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host is the fingerprint of the machine a result was measured on. Two
// results are comparable only when their fingerprints are equal: host
// time on one machine says nothing about another.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func hostFingerprint() host {
	return host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat returns the machine's steal and total CPU ticks from
// /proc/stat, or zeros where that is unavailable.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// code identifies the program a result measured: the git commit when
// the checkout is a git repository, and always a digest of the Go
// sources, which also identifies an exported tree.
type code struct {
	Commit string `json:"commit"`
	Tree   string `json:"tree"`
}

func codeIdentity(root string) code {
	c := code{Commit: "unknown", Tree: "unknown"}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			c.Commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return c
	}
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return c
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	c.Tree = hex.EncodeToString(h.Sum(nil)[:8])
	return c
}

// compareMain compares two runs' records, each read from a file holding
// the benchmark's standard output. It refuses, with exit code 2, to
// compare results from different hosts or of different workloads.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out NEW.out")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		r, err := readRecord(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		recs[i] = r
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", err)
		return 2
	}
	a, b := recs[0], recs[1]
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: %s (%s) -> %s (%s)\n", a.Workload, a.Seed, a.Code.Tree, a.Code.Commit, b.Code.Tree, b.Code.Commit)
	for _, n := range names {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		change := "n/a"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb/va-1))
		}
		fmt.Printf("%-45s %12.6g %12.6g %8s %s\n", n, va, vb, change, a.Metrics[n].Unit)
	}
	fmt.Printf("%-45s %12.6g %12.6g\n", "fail_frac", a.FailFrac, b.FailFrac)
	return 0
}

// comparable reports why two records may not be compared, or nil.
func comparable(a, b record) error {
	switch {
	case a.Host != b.Host:
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a.Host, b.Host)
	case a.Workload != b.Workload || a.Shape != b.Shape:
		return fmt.Errorf("workloads differ: %s %q vs %s %q", a.Workload, a.Shape, b.Workload, b.Shape)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Trace != b.Trace:
		return fmt.Errorf("one run is traced and the other is not")
	}
	return nil
}

func readRecord(path string) (record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "record "); ok {
			var r record
			if err := json.Unmarshal([]byte(rest), &r); err != nil {
				return record{}, fmt.Errorf("%s: %w", path, err)
			}
			return r, nil
		}
	}
	return record{}, fmt.Errorf("%s: no record line", path)
}
