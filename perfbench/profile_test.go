package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfByLayerChargesEachSampleOnce(t *testing.T) {
	samples := []stack{
		// Map work called from the tree counts to the tree.
		{ns: 10, funcs: []string{"runtime.mapaccess2", "metaleak/internal/itree.(*VTree).resetSubtree", "metaleak/internal/core.(*CounterMonitor).Bump", "main.main"}},
		// The innermost metaleak/internal frame wins over outer ones.
		{ns: 20, funcs: []string{"metaleak/internal/dram.(*DRAM).access", "metaleak/internal/secmem.(*Controller).Read", "metaleak/internal/core.(*Attacker).Probe"}},
		// Inlined closures keep their package prefix.
		{ns: 30, funcs: []string{"metaleak/internal/crypto.(*Engine).HashBytes.func1", "metaleak/internal/crypto.(*Engine).MACOf"}},
		// No metaleak frame: the Go runtime's own bucket.
		{ns: 40, funcs: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{ns: 50, funcs: nil},
		// A metaleak package that is not a named layer.
		{ns: 60, funcs: []string{"metaleak/internal/faults.(*Harness).WrapTrial.func1", "runtime.goexit"}},
		// The benchmark's own frames are not layer frames.
		{ns: 70, funcs: []string{"crypto/sha256.block", "main.digest", "main.childRun"}},
	}
	self, total := selfByLayer(samples)
	want := map[string]int64{"itree": 10, "dram": 20, "crypto": 30, "runtime": 40 + 50 + 70, "other": 60}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if total != 280 || sum != total {
		t.Errorf("sum of self = %d, total = %d, want both 280", sum, total)
	}
	if len(self) != len(want) {
		t.Errorf("charged layers %v, want exactly %v", self, want)
	}
}

func TestCumulativeCountsRecursionOnce(t *testing.T) {
	f := "metaleak/internal/itree.(*VTree).WritebackNode"
	samples := []stack{
		{ns: 5, funcs: []string{f, "x", f}},
		{ns: 7, funcs: []string{"y", f}},
		{ns: 11, funcs: []string{"y"}},
	}
	if got := cumulative(samples, []string{f})[f]; got != 12 {
		t.Fatalf("cumulative = %d, want 12", got)
	}
	if got := cumName(f); got != "cum_s.itree.VTree.WritebackNode" {
		t.Fatalf("cumName = %q", got)
	}
	if got := cumName("metaleak/internal/contract.Projector.Observe"); got != "cum_s.contract.Projector.Observe" {
		t.Fatalf("cumName = %q", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseCPUProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in a 300ms busy profile")
	}
	cum := cumulative(samples, []string{"metaleak/perfbench.spin"})
	_, total := selfByLayer(samples)
	if cum["metaleak/perfbench.spin"] == 0 || total < cum["metaleak/perfbench.spin"] {
		t.Fatalf("spin has %dns of a %dns profile", cum["metaleak/perfbench.spin"], total)
	}
}
