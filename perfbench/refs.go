package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed is the seed whose references are kept per unit, so a
// mismatch names the experiment, cell or row that changed. Other seeds
// keep one digest per pass.
const defaultSeed = 1

// refs holds a workload's reference digests: seed -> unit -> digest,
// where unit "*" is the whole pass (passDigest).
type refs map[uint64]map[string]string

// loadRefs reads a references file: one "<seed> <unit> <digest>" per
// line, '#' starting a comment. A missing file is an empty set.
func loadRefs(path string) (refs, error) {
	r := refs{}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want <seed> <unit> <digest>", path, ln)
		}
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		if r[seed] == nil {
			r[seed] = map[string]string{}
		}
		r[seed][fields[1]] = fields[2]
	}
	return r, sc.Err()
}

// check compares a pass's unit digests with the references for seed.
// It returns what they were checked against ("units", "pass", or
// "self" when the seed has no reference and passes were only compared
// with each other), a message per mismatch, and which units failed.
func (r refs) check(seed uint64, units, digests []string) (string, []string, []bool) {
	want := r[seed]
	bad := make([]bool, len(units))
	var msgs []string
	if len(want) > 1 { // per-unit digests beside the pass digest
		for i, u := range units {
			if w, ok := want[u]; !ok || w != digests[i] {
				bad[i] = true
				msgs = append(msgs, fmt.Sprintf("%s: digest %s, reference %q", u, digests[i], w))
			}
		}
		if len(want) != len(units)+1 {
			msgs = append(msgs, fmt.Sprintf("references hold %d units for seed %d, the run has %d", len(want)-1, seed, len(units)))
			for i := range bad {
				bad[i] = true
			}
		}
		return "units", msgs, bad
	}
	if w, ok := want["*"]; ok {
		if got := passDigest(digests); got != w {
			msgs = append(msgs, fmt.Sprintf("pass digest %s, reference %s", got, w))
			for i := range bad {
				bad[i] = true
			}
		}
		return "pass", msgs, bad
	}
	return "self", nil, bad
}

// update records seed's digests (per unit for the default seed, per
// pass otherwise) and rewrites the references file.
func (r refs) update(path string, seed uint64, units, digests []string) error {
	m := map[string]string{"*": passDigest(digests)}
	if seed == defaultSeed {
		for i, u := range units {
			m[u] = digests[i]
		}
	}
	r[seed] = m

	seeds := make([]uint64, 0, len(r))
	for s := range r {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var b strings.Builder
	b.WriteString("# <seed> <unit> <first 16 hex digits of the SHA-256 of the unit's output>\n")
	b.WriteString("# Unit \"*\" is the whole pass. Regenerate with -update (see README.md).\n")
	for _, s := range seeds {
		if s == defaultSeed {
			for _, u := range units {
				fmt.Fprintf(&b, "%d %s %s\n", s, u, r[s][u])
			}
		}
		fmt.Fprintf(&b, "%d * %s\n", s, r[s]["*"])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
