package itree

import (
	"encoding/binary"

	"metaleak/internal/arch"
)

// VTreeConfig parameterizes a version-counter tree. It covers both the
// split-counter tree (SCT: small minors that overflow, per-node major) and
// the SGX integrity tree (SIT: wide monolithic counters that never
// overflow in practice).
type VTreeConfig struct {
	Name      string // "SCT" or "SIT"
	Arities   []int  // fan-in per stored level, leaf first (SCT: 32,16,...; SIT: 8,8,8)
	MinorBits uint   // per-child version counter width (SCT: 7; SIT: 56)
	// CounterBlocks is the number of encryption counter blocks covered.
	CounterBlocks int
	// CounterBlockOffset shifts the covered counter-block range and
	// NodeBlockOffset shifts the node-block region — used by the
	// per-domain forest (Partitioned) to keep domains disjoint.
	CounterBlockOffset int
	NodeBlockOffset    int
}

// vnode is the authoritative state of one tree node block: a shared major
// counter, one version ("minor") counter per child, and the embedded hash
// that binds them to the parent's version counter for this node.
//
// Subtree resets are applied lazily (see overflow): resets counts the
// resets rooted at this node, and major, minors and hash are as of the
// tree's resetSeq value seq, caught up by node() when they differ.
type vnode struct {
	major   uint64
	resets  uint64
	seq     uint64
	minors  []uint64
	hash    uint64
	hashSet bool
}

// ctrEntry is one counter block's embedded hash, tagged with its leaf's
// major at the time it was established. A subtree reset bumps the leaf's
// major, which retires every entry under it without touching the map.
type ctrEntry struct {
	hash  uint64
	major uint64
}

// VTree is a version-counter integrity tree. It implements Tree.
type VTree struct {
	cfg   VTreeConfig
	geo   geometry
	h     Hasher
	nodes []map[int]*vnode // per level, sparse
	// ctrHash holds the per-counter-block hash binding counter contents to
	// the L0 version counter (the embedded per-block hash of Fig. 4b). An
	// entry whose major differs from its leaf's counts as absent.
	ctrHash map[arch.BlockID]ctrEntry
	// resetSeq counts subtree resets; a node whose seq differs may sit
	// under a reset it has not caught up with yet.
	resetSeq uint64
	// root holds the on-chip version counters for the top stored level.
	root map[int]uint64
	// hashBuf and cbBuf are scratch buffers for hashNode/hashCounterBlock.
	// Passing a local buffer to the Hasher interface forces it to escape,
	// so a fresh allocation per hash; the tree is single-threaded like the
	// rest of the simulator, so one reusable buffer each suffices.
	hashBuf []byte
	cbBuf   [8 + arch.BlockSize]byte
	// rehashed backs every overflow's Update.Rehashed: a subtree reset
	// refills it from the start instead of growing a fresh list, so the
	// returned slice is valid only until the next Writeback* call.
	rehashed []BlockRun
}

// NewVTree builds a version-counter tree.
func NewVTree(cfg VTreeConfig, h Hasher) *VTree {
	if cfg.MinorBits == 0 || cfg.MinorBits > 63 {
		panic("itree: VTree MinorBits must be in [1,63]")
	}
	geo := newGeometry(cfg.CounterBlocks, cfg.Arities)
	geo.cbOff = cfg.CounterBlockOffset
	geo.nodeOff = cfg.NodeBlockOffset
	t := &VTree{
		cfg:     cfg,
		geo:     geo,
		h:       h,
		ctrHash: make(map[arch.BlockID]ctrEntry),
		root:    make(map[int]uint64),
	}
	t.nodes = make([]map[int]*vnode, len(cfg.Arities))
	for i := range t.nodes {
		t.nodes[i] = make(map[int]*vnode)
	}
	return t
}

// Name implements Tree.
func (t *VTree) Name() string { return t.cfg.Name }

// StoredLevels implements Tree.
func (t *VTree) StoredLevels() int { return len(t.cfg.Arities) }

// Arity implements Tree.
func (t *VTree) Arity(level int) int { return t.cfg.Arities[level] }

// CounterBlockCapacity implements Tree.
func (t *VTree) CounterBlockCapacity() int { return t.cfg.CounterBlocks }

// LeafRef implements Tree.
func (t *VTree) LeafRef(cb arch.BlockID) NodeRef { return t.geo.leafRef(cb) }

// Parent implements Tree.
func (t *VTree) Parent(ref NodeRef) (NodeRef, bool) { return t.geo.parent(ref) }

// NodeBlockID implements Tree.
func (t *VTree) NodeBlockID(ref NodeRef) arch.BlockID { return t.geo.nodeBlockID(ref) }

// RefOfBlock implements Tree.
func (t *VTree) RefOfBlock(b arch.BlockID) (NodeRef, bool) { return t.geo.refOfBlock(b) }

// Path implements Tree.
func (t *VTree) Path(cb arch.BlockID) []NodeRef { return t.geo.path(cb) }

// CoverageCounterBlocks implements Tree.
func (t *VTree) CoverageCounterBlocks(level int) int { return t.geo.coverage(level) }

// MinorMax returns the saturation value of a tree minor counter.
func (t *VTree) MinorMax() uint64 { return 1<<t.cfg.MinorBits - 1 }

// node returns ref's state, creating it on first use and catching it up
// with every subtree reset above it.
func (t *VTree) node(ref NodeRef) *vnode {
	if n := t.lookup(ref); n != nil {
		return n
	}
	n := &vnode{seq: t.resetSeq, minors: make([]uint64, t.cfg.Arities[ref.Level])}
	if t.resetSeq != 0 {
		n.major = t.ancestorResets(ref)
	}
	t.nodes[ref.Level][ref.Index] = n
	return n
}

// lookup is node without creation: nil when ref was never stored, which
// reads as all-zero minors whatever resets lie above it.
func (t *VTree) lookup(ref NodeRef) *vnode {
	n := t.nodes[ref.Level][ref.Index]
	if n == nil || n.seq == t.resetSeq {
		return n
	}
	// A reset happened somewhere since n last synced. n's effective major
	// is the reset count over n and its ancestors; it only grows, so a
	// change means a reset covered n, which zeroes its minors and voids its
	// hash exactly as the eager reset would have.
	n.seq = t.resetSeq
	if major := n.resets + t.ancestorResets(ref); major != n.major {
		n.major = major
		clear(n.minors)
		n.hashSet = false
	}
	return n
}

// ancestorResets sums the subtree resets rooted at ref's stored ancestors
// (a never-created ancestor has none).
func (t *VTree) ancestorResets(ref NodeRef) uint64 {
	var sum uint64
	for p, ok := t.geo.parent(ref); ok; p, ok = t.geo.parent(p) {
		if a := t.nodes[p.Level][p.Index]; a != nil {
			sum += a.resets
		}
	}
	return sum
}

// childSlot returns the minor-counter slot inside ref's parent (or the
// on-chip root) that versions ref, along with the parent node (nil when the
// parent is the root).
func (t *VTree) childSlot(ref NodeRef) (parent *vnode, slot int, isRoot bool) {
	p, ok := t.geo.parent(ref)
	if !ok {
		return nil, ref.Index, true
	}
	return t.node(p), ref.Index % t.cfg.Arities[p.Level], false
}

// parentMinor reads the version counter that the parent currently holds
// for ref.
func (t *VTree) parentMinor(ref NodeRef) uint64 {
	parent, slot, isRoot := t.childSlot(ref)
	if isRoot {
		return t.root[slot]
	}
	return parent.minors[slot]
}

// MinorValue exposes the version counter a node holds for its child slot —
// the state MetaLeak-C presets and overflows. Attack and test use.
func (t *VTree) MinorValue(ref NodeRef, slot int) uint64 {
	if n := t.lookup(ref); n != nil {
		return n.minors[slot]
	}
	return 0
}

// hashNode computes the embedded hash of a node: H(parent minor ‖ major ‖
// minors), per the SCT construction in §IV-C.
func (t *VTree) hashNode(ref NodeRef, n *vnode) uint64 {
	need := 16 + 8*len(n.minors)
	if cap(t.hashBuf) < need {
		t.hashBuf = make([]byte, need)
	}
	buf := t.hashBuf[:need]
	binary.LittleEndian.PutUint64(buf[0:8], t.parentMinor(ref))
	binary.LittleEndian.PutUint64(buf[8:16], n.major)
	for i, m := range n.minors {
		binary.LittleEndian.PutUint64(buf[16+8*i:], m)
	}
	return t.h.HashBytes(buf)
}

// hashCounterBlock computes the hash binding counter-block contents to its
// L0 version counter, held by leaf.
func (t *VTree) hashCounterBlock(cb arch.BlockID, leaf *vnode, contents [arch.BlockSize]byte) uint64 {
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	buf := &t.cbBuf
	binary.LittleEndian.PutUint64(buf[0:8], leaf.minors[slot])
	copy(buf[8:], contents[:])
	return t.h.HashBytes(buf[:])
}

// VerifyCounterBlock implements Tree. The first verification of a counter
// block since its leaf was last reset lazily establishes its hash (the
// tree-construction-at-init equivalence): counters only mutate while
// cached, so a block can never be filled with contents that differ from
// its last writeback.
func (t *VTree) VerifyCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	leaf := t.node(t.LeafRef(cb))
	want := t.hashCounterBlock(cb, leaf, contents)
	if e, ok := t.ctrHash[cb]; ok && e.major == leaf.major {
		return e.hash == want
	}
	t.ctrHash[cb] = ctrEntry{hash: want, major: leaf.major}
	return true
}

// VerifyNode implements Tree (one step of Algorithm 2).
func (t *VTree) VerifyNode(ref NodeRef) bool {
	n := t.node(ref)
	want := t.hashNode(ref, n)
	if !n.hashSet {
		n.hash = want
		n.hashSet = true
		return true
	}
	return n.hash == want
}

// bumpMinor increments the version counter for ref inside its parent (or
// the root), handling overflow. It returns the overflow fallout, if any.
func (t *VTree) bumpMinor(ref NodeRef) *Update {
	parent, slot, isRoot := t.childSlot(ref)
	if isRoot {
		t.root[slot]++ // on-chip counters are wide; no overflow
		return nil
	}
	if parent.minors[slot] < t.MinorMax() {
		parent.minors[slot]++
		return nil
	}
	// Tree minor overflow (§IV-C): the node's major is incremented, its
	// minors reset, and the whole subtree under it re-hashed.
	p, _ := t.geo.parent(ref)
	up := t.overflow(p)
	parent.minors[slot] = 1 // the triggering child's fresh version
	return up
}

// overflow implements the overflow handling of §IV-C: the node and ALL
// its descendant node blocks have their majors incremented and minors
// reset, and every hash in the subtree must be recomputed — the hardware
// cannot skip any of them, because each child's embedded hash covers its
// parent's (now reset) version counter. The full subtree therefore counts
// as re-hash traffic, which is what makes tree-counter overflow so
// expensive and so observable (Fig. 8).
//
// Only ref's own state changes here: descendants catch up on their next
// node() call and counter-block hashes retire by major (see ctrEntry), so
// the reset costs O(depth) in tree state. The re-hash list is written as
// block runs into the tree's shared rehashed buffer.
func (t *VTree) overflow(ref NodeRef) *Update {
	n := t.node(ref)
	n.resets++
	n.major++
	clear(n.minors)
	n.hashSet = false
	t.resetSeq++
	n.seq = t.resetSeq
	up := &Update{Overflow: true, OverflowRef: ref}
	up.Rehashed = t.appendSubtree(t.rehashed[:0], ref)
	t.rehashed = up.Rehashed
	return up
}

// appendSubtree lists the blocks of ref's subtree depth-first: the node
// block, then its children's subtrees, with a leaf's counter blocks as one
// run after the leaf.
func (t *VTree) appendSubtree(runs []BlockRun, ref NodeRef) []BlockRun {
	runs = appendRun(runs, t.NodeBlockID(ref), 1)
	a := t.cfg.Arities[ref.Level]
	first := ref.Index * a
	if ref.Level == 0 {
		cb := arch.CounterBase.Block() + arch.BlockID(t.geo.cbOff+first)
		return appendRun(runs, cb, min(a, t.geo.nCB-first))
	}
	child := NodeRef{Level: ref.Level - 1}
	end := min(first+a, t.geo.counts[child.Level])
	for child.Index = first; child.Index < end; child.Index++ {
		runs = t.appendSubtree(runs, child)
	}
	return runs
}

// appendRun appends n blocks from first, extending the last run when the
// two are adjacent.
func appendRun(runs []BlockRun, first arch.BlockID, n int) []BlockRun {
	if k := len(runs) - 1; k >= 0 && runs[k].First+arch.BlockID(runs[k].N) == first {
		runs[k].N += n
		return runs
	}
	return append(runs, BlockRun{First: first, N: n})
}

// WritebackCounterBlock implements Tree: the lazy update when a dirty
// counter block leaves the metadata cache. The L0 version counter for the
// block advances (possibly overflowing) and the block's hash is refreshed.
func (t *VTree) WritebackCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) *Update {
	leaf := t.LeafRef(cb)
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	n := t.node(leaf)
	var up *Update
	if n.minors[slot] < t.MinorMax() {
		n.minors[slot]++
	} else {
		up = t.overflow(leaf)
		n.minors[slot] = 1
	}
	t.ctrHash[cb] = ctrEntry{hash: t.hashCounterBlock(cb, n, contents), major: n.major}
	return up
}

// WritebackNode implements Tree: the lazy update when a dirty node block
// leaves the metadata cache. The parent's version counter for this node
// advances (possibly overflowing) and the node's embedded hash is
// recomputed against the new version.
func (t *VTree) WritebackNode(ref NodeRef) *Update {
	up := t.bumpMinor(ref)
	n := t.node(ref)
	n.hash = t.hashNode(ref, n)
	n.hashSet = true
	return up
}

// CorruptNode flips the stored hash of a node — a tamper injection hook
// for tests (simulating physical replay/spoofing of a node block).
func (t *VTree) CorruptNode(ref NodeRef) {
	n := t.node(ref)
	if !n.hashSet {
		n.hash = t.hashNode(ref, n)
		n.hashSet = true
	}
	n.hash ^= 0xdeadbeef
}

// CorruptCounterHash flips the stored hash of a counter block (tamper
// injection for tests).
func (t *VTree) CorruptCounterHash(cb arch.BlockID) {
	leaf := t.node(t.LeafRef(cb))
	e, ok := t.ctrHash[cb]
	if !ok || e.major != leaf.major {
		e = ctrEntry{major: leaf.major}
	}
	e.hash ^= 0xdeadbeef
	t.ctrHash[cb] = e
}
