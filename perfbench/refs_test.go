package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRefs(t *testing.T, units, digests []string, seeds ...uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.txt")
	r := refs{}
	for _, s := range seeds {
		if err := r.update(path, s, units, digests); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// perturb changes one hex digit of the digest on the line that starts
// with prefix.
func perturb(t *testing.T, path, prefix string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			last := l[len(l)-1]
			repl := byte('0')
			if last == '0' {
				repl = '1'
			}
			lines[i] = l[:len(l)-1] + string(repl)
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no line starting %q in %s", prefix, b)
}

func TestReferencesMatch(t *testing.T) {
	units := []string{"fig6", "fig8", "table1"}
	digests := []string{digest("a"), digest("b"), digest("c")}
	path := writeRefs(t, units, digests, defaultSeed, 7)
	r, err := loadRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{defaultSeed, 7} {
		checked, msgs, bad := r.check(seed, units, digests)
		if len(msgs) != 0 || bad[0] || bad[1] || bad[2] {
			t.Errorf("seed %d: clean references reported %v %v", seed, msgs, bad)
		}
		if want := map[uint64]string{defaultSeed: "units", 7: "pass"}[seed]; checked != want {
			t.Errorf("seed %d checked against %q, want %q", seed, checked, want)
		}
	}
	if checked, _, _ := r.check(99, units, digests); checked != "self" {
		t.Errorf("a seed without references checked against %q", checked)
	}
}

func TestPerturbedReferenceByteIsCaught(t *testing.T) {
	units := []string{"fig6", "fig8", "table1"}
	digests := []string{digest("a"), digest("b"), digest("c")}

	path := writeRefs(t, units, digests, defaultSeed)
	perturb(t, path, "1 fig8 ")
	r, err := loadRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	_, msgs, bad := r.check(defaultSeed, units, digests)
	if !bad[1] || bad[0] || bad[2] {
		t.Fatalf("perturbed fig8 reference: failed units %v, want only fig8", bad)
	}
	if len(msgs) != 1 || !strings.HasPrefix(msgs[0], "fig8:") {
		t.Fatalf("mismatch not named: %v", msgs)
	}

	path = writeRefs(t, units, digests, 7)
	perturb(t, path, "7 * ")
	r, err = loadRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	_, msgs, bad = r.check(7, units, digests)
	if len(msgs) != 1 || !bad[0] || !bad[1] || !bad[2] {
		t.Fatalf("perturbed pass reference: %v %v, want every unit failed", msgs, bad)
	}
}

func TestComparableRefusesOtherHosts(t *testing.T) {
	a := record{Workload: "hunt", Shape: "s", Seed: 1, Host: host{GoVersion: "go1.24.0", GOMAXPROCS: 2, NProc: 2, CPUModel: "X"}}
	if err := comparable(a, a); err != nil {
		t.Fatalf("identical records refused: %v", err)
	}
	for name, mut := range map[string]func(*record){
		"cpu":        func(r *record) { r.Host.CPUModel = "Y" },
		"gomaxprocs": func(r *record) { r.Host.GOMAXPROCS = 1 },
		"nproc":      func(r *record) { r.Host.NProc = 4 },
		"go":         func(r *record) { r.Host.GoVersion = "go1.23.0" },
		"seed":       func(r *record) { r.Seed = 2 },
		"shape":      func(r *record) { r.Shape = "t" },
	} {
		b := a
		mut(&b)
		if err := comparable(a, b); err == nil {
			t.Errorf("%s: records that differ were compared", name)
		}
	}
}
