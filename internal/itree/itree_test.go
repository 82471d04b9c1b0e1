package itree

import (
	"slices"
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
	"metaleak/internal/crypto"
)

func hasher() Hasher {
	return crypto.New(crypto.Config{AESLatency: 20, HashLatency: 12})
}

func cb(i int) arch.BlockID { return arch.CounterBase.Block() + arch.BlockID(i) }

func newSCT(nCB int) *VTree {
	return NewVTree(VTreeConfig{
		Name: "SCT", Arities: []int{32, 16, 16}, MinorBits: 7, CounterBlocks: nCB,
	}, hasher())
}

func newSIT(nCB int) *VTree {
	return NewVTree(VTreeConfig{
		Name: "SIT", Arities: []int{8, 8, 8}, MinorBits: 56, CounterBlocks: nCB,
	}, hasher())
}

func newHT(nCB int) *HTree {
	return NewHTree(HTreeConfig{Arities: []int{8, 8, 8}, CounterBlocks: nCB}, hasher())
}

func TestGeometryCounts(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	if tr.StoredLevels() != 3 {
		t.Fatalf("levels = %d", tr.StoredLevels())
	}
	want := []int{16 * 16, 16, 1}
	for l, w := range want {
		if tr.geo.counts[l] != w {
			t.Fatalf("level %d count = %d want %d", l, tr.geo.counts[l], w)
		}
	}
}

func TestPathBottomUp(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	path := tr.Path(cb(33)) // leaf index 1
	if len(path) != 3 {
		t.Fatalf("path length = %d", len(path))
	}
	if path[0] != (NodeRef{0, 1}) || path[1] != (NodeRef{1, 0}) || path[2] != (NodeRef{2, 0}) {
		t.Fatalf("path = %v", path)
	}
}

func TestNodeBlockAddressingRoundTrip(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	for _, ref := range []NodeRef{{0, 0}, {0, 255}, {1, 15}, {2, 0}} {
		b := tr.NodeBlockID(ref)
		if !b.IsTree() {
			t.Fatalf("%v not in tree region", ref)
		}
		got, ok := tr.RefOfBlock(b)
		if !ok || got != ref {
			t.Fatalf("round trip %v -> %v (%v)", ref, got, ok)
		}
	}
	if _, ok := tr.RefOfBlock(arch.BlockID(5)); ok {
		t.Fatal("data block resolved as tree node")
	}
}

func TestCoverage(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	if tr.CoverageCounterBlocks(0) != 32 {
		t.Fatalf("L0 coverage = %d", tr.CoverageCounterBlocks(0))
	}
	if tr.CoverageCounterBlocks(1) != 32*16 {
		t.Fatalf("L1 coverage = %d", tr.CoverageCounterBlocks(1))
	}
}

func TestVerifyAfterWritebackHonest(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	contents[0] = 1
	if !tr.VerifyCounterBlock(cb(0), contents) {
		t.Fatal("lazy first verify rejected")
	}
	// A writeback with new contents, then verification of those contents.
	contents[0] = 2
	if up := tr.WritebackCounterBlock(cb(0), contents); up != nil {
		t.Fatal("unexpected overflow on first writeback")
	}
	if !tr.VerifyCounterBlock(cb(0), contents) {
		t.Fatal("verify rejected honest contents after writeback")
	}
}

func TestVerifyDetectsStaleCounterBlock(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var v1, v2 [arch.BlockSize]byte
	v1[0], v2[0] = 1, 2
	tr.VerifyCounterBlock(cb(0), v1) // establish
	tr.WritebackCounterBlock(cb(0), v2)
	// Replaying the stale contents must fail (replay detection).
	if tr.VerifyCounterBlock(cb(0), v1) {
		t.Fatal("replayed counter block accepted")
	}
}

func TestVerifyNodeDetectsCorruption(t *testing.T) {
	for _, tr := range []Tree{newSCT(32 * 16 * 16), newSIT(512), Tree(newHT(512))} {
		ref := NodeRef{0, 0}
		if !tr.VerifyNode(ref) {
			t.Fatalf("%s: lazy node verify rejected", tr.Name())
		}
		switch tt := tr.(type) {
		case *VTree:
			tt.CorruptNode(ref)
		case *HTree:
			// Corrupt the stored child-hash and then check the node via its
			// parent after a writeback (HT corruption surfaces one level up).
			tt.WritebackNode(ref)
			tt.CorruptNode(ref)
			if tt.VerifyNode(ref) {
				t.Fatal("HT: corrupted node accepted")
			}
			continue
		}
		if tr.VerifyNode(ref) {
			t.Fatalf("%s: corrupted node accepted", tr.Name())
		}
	}
}

func TestCounterHashCorruptionDetected(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	tr.VerifyCounterBlock(cb(3), contents)
	tr.CorruptCounterHash(cb(3))
	if tr.VerifyCounterBlock(cb(3), contents) {
		t.Fatal("corrupted counter hash accepted")
	}
}

func TestLazyMinorIncrementPerWriteback(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	leaf := tr.LeafRef(cb(5))
	for i := 1; i <= 3; i++ {
		tr.WritebackCounterBlock(cb(5), contents)
		if got := tr.MinorValue(leaf, 5); got != uint64(i) {
			t.Fatalf("after %d writebacks minor = %d", i, got)
		}
	}
	// A different counter block under the same leaf uses its own slot.
	tr.WritebackCounterBlock(cb(6), contents)
	if tr.MinorValue(leaf, 5) != 3 || tr.MinorValue(leaf, 6) != 1 {
		t.Fatal("minor slots not independent")
	}
}

func TestTreeMinorOverflowResetsSubtree(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	var contents [arch.BlockSize]byte
	leaf := tr.LeafRef(cb(0))
	var up *Update
	for i := uint64(0); i <= tr.MinorMax(); i++ {
		up = tr.WritebackCounterBlock(cb(0), contents)
	}
	if up == nil || !up.Overflow {
		t.Fatalf("no overflow after %d writebacks", tr.MinorMax()+1)
	}
	if up.OverflowRef != leaf {
		t.Fatalf("overflow at %v want %v", up.OverflowRef, leaf)
	}
	if len(up.Rehashed) == 0 {
		t.Fatal("overflow re-hashed nothing")
	}
	if tr.MinorValue(leaf, 0) != 1 {
		t.Fatalf("triggering minor after overflow = %d", tr.MinorValue(leaf, 0))
	}
	// The node and its content remain verifiable after the reset.
	if !tr.VerifyCounterBlock(cb(0), contents) {
		t.Fatal("post-overflow verification of triggering block failed")
	}
}

func TestNodeWritebackPropagatesUp(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	l1 := NodeRef{1, 0}
	if tr.MinorValue(l1, 0) != 0 {
		t.Fatal("dirty world")
	}
	tr.WritebackNode(NodeRef{0, 0})
	if tr.MinorValue(l1, 0) != 1 {
		t.Fatalf("L1 minor = %d after L0 writeback", tr.MinorValue(l1, 0))
	}
	// Node verifies against the updated parent version.
	if !tr.VerifyNode(NodeRef{0, 0}) {
		t.Fatal("node stale after its own writeback")
	}
}

func TestSITWideCountersDoNotOverflow(t *testing.T) {
	tr := newSIT(512)
	var contents [arch.BlockSize]byte
	for i := 0; i < 300; i++ {
		if up := tr.WritebackCounterBlock(cb(0), contents); up != nil {
			t.Fatal("56-bit counter overflowed in 300 writebacks")
		}
	}
}

func TestHTNoOverflowEver(t *testing.T) {
	tr := newHT(512)
	var contents [arch.BlockSize]byte
	for i := 0; i < 200; i++ {
		if up := tr.WritebackCounterBlock(cb(1), contents); up != nil {
			t.Fatal("hash tree reported an overflow")
		}
	}
}

func TestHTDetectsReplayedCounterBlock(t *testing.T) {
	tr := newHT(512)
	var v1, v2 [arch.BlockSize]byte
	v1[0], v2[0] = 1, 2
	tr.VerifyCounterBlock(cb(0), v1)
	tr.WritebackCounterBlock(cb(0), v2)
	if tr.VerifyCounterBlock(cb(0), v1) {
		t.Fatal("HT accepted replayed counter block")
	}
	if !tr.VerifyCounterBlock(cb(0), v2) {
		t.Fatal("HT rejected fresh counter block")
	}
}

// Property: Path always starts at the leaf covering cb, is strictly
// increasing in level, and every consecutive pair is child/parent.
func TestQuickPathWellFormed(t *testing.T) {
	trees := []Tree{newSCT(32 * 16 * 16), newSIT(512), newHT(512)}
	for _, tr := range trees {
		tr := tr
		f := func(raw uint16) bool {
			idx := int(raw) % tr.CounterBlockCapacity()
			p := tr.Path(cb(idx))
			if len(p) != tr.StoredLevels() {
				return false
			}
			if p[0] != tr.LeafRef(cb(idx)) {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				parent, ok := tr.Parent(p[i])
				if !ok || parent != p[i+1] {
					return false
				}
			}
			_, ok := tr.Parent(p[len(p)-1])
			return !ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

// Property: writeback-then-verify always succeeds for arbitrary contents
// sequences (the no-false-positive requirement of integrity checking).
func TestQuickWritebackVerifyNoFalsePositives(t *testing.T) {
	trees := []Tree{newSCT(32 * 16), newSIT(512), newHT(512)}
	for _, tr := range trees {
		tr := tr
		f := func(raw uint16, c [arch.BlockSize]byte) bool {
			idx := int(raw) % tr.CounterBlockCapacity()
			tr.WritebackCounterBlock(cb(idx), c)
			return tr.VerifyCounterBlock(cb(idx), c)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
}

func TestOutOfRangeCounterBlockPanics(t *testing.T) {
	tr := newSCT(32)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range counter block")
		}
	}()
	tr.LeafRef(cb(32))
}

func TestTreeInterfaceAccessorsAllKinds(t *testing.T) {
	trees := []Tree{
		newSCT(32 * 16 * 16),
		newSIT(512),
		newHT(512),
		NewPartitioned(VTreeConfig{
			Name: "SCT", Arities: []int{32, 16}, MinorBits: 7, CounterBlocks: 2 * 32 * 16,
		}, 2, hasher()),
	}
	for _, tr := range trees {
		if tr.Name() == "" {
			t.Fatal("empty tree name")
		}
		if tr.StoredLevels() < 2 || tr.Arity(0) < 2 {
			t.Fatalf("%s: degenerate geometry", tr.Name())
		}
		if tr.CounterBlockCapacity() <= 0 {
			t.Fatalf("%s: no capacity", tr.Name())
		}
		if tr.CoverageCounterBlocks(0) != tr.Arity(0) {
			t.Fatalf("%s: leaf coverage != arity", tr.Name())
		}
		// Leaf/parent/path/block addressing agree for an arbitrary block.
		probe := cb(tr.CounterBlockCapacity() / 2)
		leaf := tr.LeafRef(probe)
		if tr.Path(probe)[0] != leaf {
			t.Fatalf("%s: path head != leaf", tr.Name())
		}
		nb := tr.NodeBlockID(leaf)
		if got, ok := tr.RefOfBlock(nb); !ok || got != leaf {
			t.Fatalf("%s: block addressing broken", tr.Name())
		}
		if _, ok := tr.RefOfBlock(arch.BlockID(1)); ok {
			t.Fatalf("%s: data block resolved as node", tr.Name())
		}
		parent, ok := tr.Parent(leaf)
		if !ok || parent.Level != 1 {
			t.Fatalf("%s: leaf parent wrong: %v %v", tr.Name(), parent, ok)
		}
		if leaf.String() == "" {
			t.Fatal("empty ref string")
		}
	}
}

func TestHTCorruptCounterHashDetected(t *testing.T) {
	tr := newHT(512)
	var contents [arch.BlockSize]byte
	contents[0] = 9
	tr.WritebackCounterBlock(cb(7), contents)
	if !tr.VerifyCounterBlock(cb(7), contents) {
		t.Fatal("honest verify failed")
	}
	tr.CorruptCounterHash(cb(7))
	if tr.VerifyCounterBlock(cb(7), contents) {
		t.Fatal("corrupted leaf hash accepted")
	}
}

func TestHTRootVerification(t *testing.T) {
	tr := newHT(512)
	top := NodeRef{Level: 2, Index: 0}
	// Fresh top node verifies against the constant init hash.
	if !tr.VerifyNode(top) {
		t.Fatal("initial top node rejected")
	}
	// After a writeback the root updates; verification still passes...
	tr.WritebackNode(NodeRef{Level: 1, Index: 0})
	tr.WritebackNode(top)
	if !tr.VerifyNode(top) {
		t.Fatal("top node rejected after writeback")
	}
	// ...until the node contents are tampered.
	tr.CorruptNode(top)
	if tr.VerifyNode(top) {
		t.Fatal("tampered top node accepted")
	}
}

func TestPartitionedInterfaceThroughControllerPath(t *testing.T) {
	// Partitioned writeback/verify round trip for a node (the secmem
	// integration path).
	p := NewPartitioned(VTreeConfig{
		Name: "SCT", Arities: []int{32, 16}, MinorBits: 7, CounterBlocks: 2 * 32 * 16,
	}, 2, hasher())
	ref := p.LeafRef(cb(40)) // domain 0
	if up := p.WritebackNode(ref); up != nil {
		t.Fatal("unexpected overflow")
	}
	if !p.VerifyNode(ref) {
		t.Fatal("node stale after writeback")
	}
	// Second-domain node addressing is disjoint and consistent.
	ref2 := p.LeafRef(cb(512 + 40))
	if p.NodeBlockID(ref2) == p.NodeBlockID(ref) {
		t.Fatal("cross-domain node collision")
	}
}

// overflowLeaf writes c back until its leaf minor overflows (at most
// max+1 writebacks) and returns that overflow's update.
func overflowLeaf(t *testing.T, tr Tree, max uint64, c arch.BlockID) *Update {
	t.Helper()
	var contents [arch.BlockSize]byte
	for i := uint64(0); i <= max; i++ {
		if up := tr.WritebackCounterBlock(c, contents); up != nil && up.Overflow {
			return up
		}
	}
	t.Fatalf("no overflow after %d writebacks", max+1)
	return nil
}

// leafRehash is the re-hash list of a leaf overflow: the leaf node block,
// then each counter block under it in address order.
func leafRehash(tr Tree, leaf NodeRef) []arch.BlockID {
	out := []arch.BlockID{tr.NodeBlockID(leaf)}
	a := tr.Arity(0)
	for i := 0; i < a; i++ {
		out = append(out, cb(leaf.Index*a+i))
	}
	return out
}

// Every overflow's Rehashed list is correct when returned, and successive
// overflows reuse one backing array: the list is valid only until the
// next Writeback* call on the tree.
func TestRehashedReusedAcrossOverflows(t *testing.T) {
	tr := newSCT(32 * 16 * 16)
	first := overflowLeaf(t, tr, tr.MinorMax(), cb(0))
	if want := leafRehash(tr, NodeRef{0, 0}); !slices.Equal(first.Rehashed, want) {
		t.Fatalf("first overflow re-hashed %v, want %v", first.Rehashed, want)
	}
	second := overflowLeaf(t, tr, tr.MinorMax(), cb(40))
	if want := leafRehash(tr, NodeRef{0, 1}); !slices.Equal(second.Rehashed, want) {
		t.Fatalf("second overflow re-hashed %v, want %v", second.Rehashed, want)
	}
	if &first.Rehashed[0] != &second.Rehashed[0] {
		t.Fatal("second overflow grew a fresh Rehashed list")
	}
	// A node overflow re-hashes a whole L1 subtree: the L1 node, then each
	// leaf followed by its counter blocks, every counter block once.
	var up *Update
	for i := uint64(0); i <= tr.MinorMax() && up == nil; i++ {
		up = tr.WritebackNode(NodeRef{0, 3})
	}
	if up == nil || up.OverflowRef != (NodeRef{1, 0}) {
		t.Fatalf("node overflow = %+v, want one at L1[0]", up)
	}
	want := []arch.BlockID{tr.NodeBlockID(NodeRef{1, 0})}
	for leaf := 0; leaf < 16; leaf++ {
		want = append(want, leafRehash(tr, NodeRef{0, leaf})...)
	}
	if !slices.Equal(up.Rehashed, want) {
		t.Fatalf("L1 overflow re-hashed %d blocks, want %d", len(up.Rehashed), len(want))
	}
}

// A steady-state leaf overflow allocates only its Update header: the
// Rehashed list refills the tree's backing array in place.
func TestLeafOverflowSteadyStateAllocs(t *testing.T) {
	const max = 1<<7 - 1 // both trees use 7-bit minors
	for _, tc := range []struct {
		name string
		tr   Tree
	}{
		{"SCT", newSCT(32 * 16 * 16)},
		{"Partitioned", newForest(2*32*16, 2)},
	} {
		c := cb(32*16 + 5) // domain 1 of the forest
		overflowLeaf(t, tc.tr, max, c)
		avg := testing.AllocsPerRun(20, func() { overflowLeaf(t, tc.tr, max, c) })
		if avg > 1 {
			t.Errorf("%s: steady-state leaf overflow allocates %.1f objects; want <= 1", tc.name, avg)
		}
	}
}
