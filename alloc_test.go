package metaleak

import "testing"

// TestSecureReadSteadyStateAllocs pins the steady-state secure read path
// (flush + path-2 read of a warmed block) at zero heap allocations per
// access. The hot loop — counter fetch, tree walk, GHASH MAC, decrypt —
// works entirely out of reusable controller and engine scratch state; a
// regression here shows up long before it is visible in ns/op.
func TestSecureReadSteadyStateAllocs(t *testing.T) {
	sys := NewSystem(ConfigSCT())
	p := sys.AllocPage(0)
	blk := p.Block(0)
	// Warm: materialize the block, its counter and tree path, and grow all
	// lazily-sized maps and scratch buffers past their steady-state size.
	for i := 0; i < 64; i++ {
		sys.Flush(0, blk)
		sys.Read(0, blk)
	}
	avg := testing.AllocsPerRun(200, func() {
		sys.Flush(0, blk)
		sys.Read(0, blk)
	})
	if avg > 0 {
		t.Fatalf("steady-state secure read allocates %.2f objects per access; want 0", avg)
	}
}

// TestNewSystemAllocs pins machine construction at a couple hundred heap
// allocations, independent of capacity: caches allocate their line arrays
// on first fill and the integrity trees and counters materialize state
// lazily, so building a machine costs what a run touches rather than the
// size of the simulated hardware.
func TestNewSystemAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		dp   DesignPoint
	}{
		{"SCT", ConfigSCT()},
		{"HT", ConfigHT()},
		{"SGX", ConfigSGX()},
	} {
		dp := tc.dp
		avg := testing.AllocsPerRun(5, func() { NewSystem(dp) })
		t.Logf("NewSystem(%s): %.0f allocs", tc.name, avg)
		if avg > 200 {
			t.Errorf("NewSystem(%s) allocates %.0f objects; want <= 200", tc.name, avg)
		}
	}
}
