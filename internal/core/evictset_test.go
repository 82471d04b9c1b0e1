package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
	"metaleak/internal/crypto"
	"metaleak/internal/ctr"
	"metaleak/internal/dram"
	"metaleak/internal/itree"
	"metaleak/internal/secmem"
	"metaleak/internal/sim"
)

func TestEvictionSetBlocksShareTargetSet(t *testing.T) {
	r := newRig(t, 70, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	meta := r.mc.Meta()
	// Several targets across regions: counter blocks and tree node blocks.
	targets := []arch.BlockID{
		r.mc.Counters().CounterBlock(arch.PageID(5).Block(0)),
		r.mc.Tree().NodeBlockID(a.NodeOfPage(arch.PageID(77), 0)),
		r.mc.Tree().NodeBlockID(a.NodeOfPage(arch.PageID(4000), 1)),
	}
	for _, tgt := range targets {
		es, err := a.BuildEvictionSet(tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(es.Blocks) != 2*meta.Config().Ways {
			t.Fatalf("set has %d blocks, want %d", len(es.Blocks), 2*meta.Config().Ways)
		}
		seen := make(map[arch.BlockID]bool)
		for _, b := range es.Blocks {
			cb := r.mc.Counters().CounterBlock(b)
			if meta.SetIndex(cb) != meta.SetIndex(tgt) {
				t.Fatalf("block %v's counter maps to set %d, want %d",
					b, meta.SetIndex(cb), meta.SetIndex(tgt))
			}
			if seen[cb] {
				t.Fatal("duplicate counter block in eviction set")
			}
			seen[cb] = true
			if r.sys.Owner(b.Page()) != a.Core {
				t.Fatal("eviction block not attacker-owned")
			}
		}
	}
}

func TestEvictionSetRespectsAvoid(t *testing.T) {
	r := newRig(t, 71, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	avoidRef := a.NodeOfPage(arch.PageID(0), 1) // L1 subtree: pages 0..511
	tgt := r.mc.Counters().CounterBlock(arch.PageID(3).Block(0))
	es, err := a.BuildEvictionSet(tgt, []itree.NodeRef{avoidRef})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := a.counterIndexRange(avoidRef)
	for _, b := range es.Blocks {
		cb := r.mc.Counters().CounterBlock(b)
		idx := int(cb - arch.CounterBase.Block())
		if idx >= lo && idx < hi {
			t.Fatalf("eviction block %v inside avoided subtree", b)
		}
	}
}

func TestMonitorStatsAccounting(t *testing.T) {
	r := newRig(t, 72, 0)
	vp, access := r.victim(1)
	a := NewAttacker(r.sys, r.mc, 0, false)
	m, err := a.NewMonitor(vp, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Calibrate(6)
	base := m.Rounds
	for i := 0; i < 10; i++ {
		m.Evict()
		if i < 5 {
			access()
		}
		m.Reload()
	}
	if m.Rounds != base+10 {
		t.Fatalf("rounds %d want %d", m.Rounds, base+10)
	}
	if m.Hits < 4 || m.Hits > base+6 {
		t.Fatalf("hit accounting off: %d", m.Hits)
	}
}

func TestScratchStableAndOwned(t *testing.T) {
	r := newRig(t, 73, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	s1 := a.Scratch(100)
	s2 := a.Scratch(50)
	for i := range s2 {
		if s1[i] != s2[i] {
			t.Fatal("scratch blocks not stable across calls")
		}
	}
	for _, b := range s1 {
		if r.sys.Owner(b.Page()) != 0 {
			t.Fatal("scratch block not owned by attacker")
		}
	}
}

func TestNodeOfBlockBounds(t *testing.T) {
	r := newRig(t, 74, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range level")
		}
	}()
	a.NodeOfBlock(arch.PageID(0).Block(0), 99)
}

func TestClaimUnderExhaustion(t *testing.T) {
	r := newRig(t, 75, 0)
	a := NewAttacker(r.sys, r.mc, 0, false)
	ns := a.NodeOfPage(arch.PageID(0), 0) // leaf: 32 frames total
	if _, err := a.ClaimUnder(ns, 33); err == nil {
		t.Fatal("claimed more frames than the node covers")
	}
	frames, err := a.ClaimUnder(a.NodeOfPage(arch.PageID(64), 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if a.NodeOfPage(f, 0) != a.NodeOfPage(arch.PageID(64), 0) {
			t.Fatal("claimed frame outside the node")
		}
	}
}

// buildEvictionSetScan is the frame-by-frame reference search the
// arithmetic BuildEvictionSet replaced: visit every free frame in address
// order and take its first block whose (unseen, unavoided) counter block
// lands in the target's metadata set.
func buildEvictionSetScan(a *Attacker, target arch.BlockID, avoid []itree.NodeRef) (*EvictionSet, error) {
	meta := a.MC.Meta()
	want := 2 * meta.Config().Ways
	targetSet := meta.SetIndex(target)
	avoided := func(cb arch.BlockID) bool {
		i := int(cb - arch.CounterBase.Block())
		for _, ref := range avoid {
			if lo, hi := a.counterIndexRange(ref); i >= lo && i < hi {
				return true
			}
		}
		return false
	}
	es := &EvictionSet{Target: target}
	seenCB := make(map[arch.BlockID]bool)
	limit := arch.PageID(a.Sys.SecurePages())
	for frame := arch.PageID(0); frame < limit && len(es.Blocks) < want; frame++ {
		if a.Sys.Owner(frame) != -1 {
			continue
		}
		for i := 0; i < arch.BlocksPerPage; i++ {
			b := frame.Block(i)
			cb := a.MC.Counters().CounterBlock(b)
			if seenCB[cb] || avoided(cb) || meta.SetIndex(cb) != targetSet {
				continue
			}
			seenCB[cb] = true
			if err := a.ClaimFrame(frame); err != nil {
				return nil, err
			}
			es.Blocks = append(es.Blocks, b)
			break
		}
	}
	if len(es.Blocks) < want {
		return nil, fmt.Errorf("core: found only %d/%d eviction blocks for set %d", len(es.Blocks), want, targetSet)
	}
	return es, nil
}

// newSchemeRig builds a small machine with the given counter scheme and
// metadata cache size, for eviction-set searches only (no noise).
func newSchemeRig(t *testing.T, scheme string, metaKB, pages int) *rig {
	t.Helper()
	engCfg := crypto.Config{AESLatency: 20, HashLatency: 12}
	h := crypto.New(engCfg)
	var s ctr.Scheme
	var tree itree.Tree
	switch scheme {
	case "SC":
		s = ctr.NewSC(ctr.SCConfig{})
		tree = itree.NewVTree(itree.VTreeConfig{
			Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: pages,
		}, h)
	case "MoC", "GC":
		if scheme == "MoC" {
			s = ctr.NewMoC(ctr.MoCConfig{})
		} else {
			s = ctr.NewGC(ctr.GCConfig{})
		}
		tree = itree.NewVTree(itree.VTreeConfig{
			Name: "SIT", Arities: []int{8, 8, 8, 8}, MinorBits: 56, CounterBlocks: pages * 8,
		}, h)
	default:
		t.Fatalf("unknown scheme %s", scheme)
	}
	mc := secmem.New(secmem.Config{
		DRAM:   dram.DefaultConfig(),
		Meta:   cache.Config{Name: "meta", SizeBytes: metaKB * 1024, Ways: 8, HitLatency: 2},
		Engine: engCfg,
	}, s, tree)
	sys := sim.New(sim.Config{
		Cores:       2,
		L1:          cache.Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 8, HitLatency: 1},
		L2:          cache.Config{Name: "L2", SizeBytes: 1 << 20, Ways: 4, HitLatency: 10},
		L3:          cache.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, HitLatency: 29},
		SecurePages: pages,
	}, mc)
	return &rig{sys: sys, mc: mc}
}

// TestEvictionSetMatchesScanOracle checks the arithmetic candidate walk
// against the frame-by-frame scan on twin machines: identical blocks,
// identical claimed frames, and the identical error once the region is
// exhausted — across counter schemes (one counter block per page, or
// eight), metadata caches small enough that one frame holds several
// colliding counter blocks, avoided subtrees, and pre-owned frames.
func TestEvictionSetMatchesScanOracle(t *testing.T) {
	const pages = 2048
	for _, scheme := range []string{"SC", "MoC", "GC"} {
		for _, metaKB := range []int{1, 64, 256} {
			t.Run(fmt.Sprintf("%s/meta%dKB", scheme, metaKB), func(t *testing.T) {
				fast := newSchemeRig(t, scheme, metaKB, pages)
				ref := newSchemeRig(t, scheme, metaKB, pages)
				af := NewAttacker(fast.sys, fast.mc, 0, false)
				ar := NewAttacker(ref.sys, ref.mc, 0, false)
				// Frames already owned by another process: a scattered
				// handful plus one contiguous run.
				for _, r := range []*rig{fast, ref} {
					for _, p := range []arch.PageID{0, 3, 7, 64, 65, 66, 67, 200, 513} {
						if err := r.sys.AllocFrame(1, p); err != nil {
							t.Fatal(err)
						}
					}
				}
				targets := []struct {
					tgt   arch.BlockID
					avoid []itree.NodeRef
				}{
					{af.MC.Counters().CounterBlock(arch.PageID(5).Block(9)), nil},
					{af.MC.Tree().NodeBlockID(af.NodeOfPage(arch.PageID(77), 0)), nil},
					{af.MC.Counters().CounterBlock(arch.PageID(3).Block(0)),
						[]itree.NodeRef{af.NodeOfPage(arch.PageID(0), 1)}},
					{af.MC.Tree().NodeBlockID(af.NodeOfPage(arch.PageID(900), 1)),
						[]itree.NodeRef{af.NodeOfPage(arch.PageID(900), 0), af.NodeOfPage(arch.PageID(40), 1)}},
				}
				// Keep building until the region runs dry, so every
				// search after the first skips the frames earlier ones
				// claimed and the last one reports exhaustion. Each
				// successful search claims frames, so this terminates.
				for round, exhausted := 0, false; !exhausted; round++ {
					tc := targets[round%len(targets)]
					got, gerr := af.BuildEvictionSet(tc.tgt, tc.avoid)
					want, werr := buildEvictionSetScan(ar, tc.tgt, tc.avoid)
					if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
						t.Fatalf("round %d: error %v, oracle %v", round, gerr, werr)
					}
					if gerr != nil {
						if !strings.Contains(gerr.Error(), "found only") {
							t.Fatalf("round %d: unexpected error %v", round, gerr)
						}
						exhausted = true
					} else if !slices.Equal(got.Blocks, want.Blocks) {
						t.Fatalf("round %d: blocks %v, oracle %v", round, got.Blocks, want.Blocks)
					}
					for p := arch.PageID(0); p < pages; p++ {
						if fast.sys.Owner(p) != ref.sys.Owner(p) {
							t.Fatalf("round %d: frame %d owner %d, oracle %d",
								round, p, fast.sys.Owner(p), ref.sys.Owner(p))
						}
					}
				}
			})
		}
	}
}
