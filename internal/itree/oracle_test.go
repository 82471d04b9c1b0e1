package itree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metaleak/internal/arch"
)

// eagerTree is the reference model of a version-counter tree: the
// straightforward implementation that resets a whole subtree block by
// block on every overflow. The oracle test drives it in lockstep with
// VTree's lazy reset, which must be indistinguishable from it.
type eagerTree struct {
	cfg     VTreeConfig
	geo     geometry
	h       Hasher
	nodes   []map[int]*eagerNode
	ctrHash map[arch.BlockID]uint64
	root    map[int]uint64
}

type eagerNode struct {
	major   uint64
	minors  []uint64
	hash    uint64
	hashSet bool
}

// eagerUpdate is an overflow as the eager tree reports it: the node whose
// minor overflowed and every re-hashed block, one by one.
type eagerUpdate struct {
	ref      NodeRef
	rehashed []arch.BlockID
}

func newEager(cfg VTreeConfig, h Hasher) *eagerTree {
	geo := newGeometry(cfg.CounterBlocks, cfg.Arities)
	geo.cbOff = cfg.CounterBlockOffset
	geo.nodeOff = cfg.NodeBlockOffset
	t := &eagerTree{cfg: cfg, geo: geo, h: h, ctrHash: map[arch.BlockID]uint64{}, root: map[int]uint64{}}
	for range cfg.Arities {
		t.nodes = append(t.nodes, map[int]*eagerNode{})
	}
	return t
}

func (t *eagerTree) node(ref NodeRef) *eagerNode {
	n := t.nodes[ref.Level][ref.Index]
	if n == nil {
		n = &eagerNode{minors: make([]uint64, t.cfg.Arities[ref.Level])}
		t.nodes[ref.Level][ref.Index] = n
	}
	return n
}

func (t *eagerTree) maxMinor() uint64 { return 1<<t.cfg.MinorBits - 1 }

func (t *eagerTree) parentMinor(ref NodeRef) uint64 {
	p, ok := t.geo.parent(ref)
	if !ok {
		return t.root[ref.Index]
	}
	return t.node(p).minors[ref.Index%t.cfg.Arities[p.Level]]
}

func (t *eagerTree) hashNode(ref NodeRef, n *eagerNode) uint64 {
	buf := make([]byte, 16+8*len(n.minors))
	binary.LittleEndian.PutUint64(buf[0:8], t.parentMinor(ref))
	binary.LittleEndian.PutUint64(buf[8:16], n.major)
	for i, m := range n.minors {
		binary.LittleEndian.PutUint64(buf[16+8*i:], m)
	}
	return t.h.HashBytes(buf)
}

func (t *eagerTree) hashCounterBlock(cb arch.BlockID, contents [arch.BlockSize]byte) uint64 {
	var buf [8 + arch.BlockSize]byte
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	binary.LittleEndian.PutUint64(buf[0:8], t.node(t.geo.leafRef(cb)).minors[slot])
	copy(buf[8:], contents[:])
	return t.h.HashBytes(buf[:])
}

func (t *eagerTree) verifyCB(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	want := t.hashCounterBlock(cb, contents)
	got, ok := t.ctrHash[cb]
	if !ok {
		t.ctrHash[cb] = want
		return true
	}
	return got == want
}

func (t *eagerTree) verifyNode(ref NodeRef) bool {
	n := t.node(ref)
	want := t.hashNode(ref, n)
	if !n.hashSet {
		n.hash, n.hashSet = want, true
		return true
	}
	return n.hash == want
}

func (t *eagerTree) overflow(ref NodeRef) *eagerUpdate {
	up := &eagerUpdate{ref: ref}
	t.resetSubtree(ref, up)
	return up
}

// resetSubtree increments the major of ref and of every node below it,
// zeroes their minors, voids their hashes and drops the hash of every
// counter block below, listing each block as it goes.
func (t *eagerTree) resetSubtree(ref NodeRef, up *eagerUpdate) {
	n := t.node(ref)
	n.major++
	clear(n.minors)
	n.hashSet = false
	up.rehashed = append(up.rehashed, t.geo.nodeBlockID(ref))
	a := t.cfg.Arities[ref.Level]
	if ref.Level == 0 {
		for i := ref.Index * a; i < (ref.Index+1)*a && i < t.geo.nCB; i++ {
			cb := arch.CounterBase.Block() + arch.BlockID(t.geo.cbOff+i)
			delete(t.ctrHash, cb)
			up.rehashed = append(up.rehashed, cb)
		}
		return
	}
	for i := ref.Index * a; i < (ref.Index+1)*a && i < t.geo.counts[ref.Level-1]; i++ {
		t.resetSubtree(NodeRef{Level: ref.Level - 1, Index: i}, up)
	}
}

func (t *eagerTree) writebackCB(cb arch.BlockID, contents [arch.BlockSize]byte) *eagerUpdate {
	leaf := t.geo.leafRef(cb)
	slot := t.geo.cbIndex(cb) % t.cfg.Arities[0]
	n := t.node(leaf)
	var up *eagerUpdate
	if n.minors[slot] < t.maxMinor() {
		n.minors[slot]++
	} else {
		up = t.overflow(leaf)
		n.minors[slot] = 1
	}
	t.ctrHash[cb] = t.hashCounterBlock(cb, contents)
	return up
}

func (t *eagerTree) writebackNode(ref NodeRef) *eagerUpdate {
	var up *eagerUpdate
	if p, ok := t.geo.parent(ref); !ok {
		t.root[ref.Index]++
	} else {
		parent, slot := t.node(p), ref.Index%t.cfg.Arities[p.Level]
		if parent.minors[slot] < t.maxMinor() {
			parent.minors[slot]++
		} else {
			up = t.overflow(p)
			parent.minors[slot] = 1
		}
	}
	n := t.node(ref)
	n.hash, n.hashSet = t.hashNode(ref, n), true
	return up
}

func (t *eagerTree) corruptNode(ref NodeRef) {
	n := t.node(ref)
	if !n.hashSet {
		n.hash, n.hashSet = t.hashNode(ref, n), true
	}
	n.hash ^= 0xdeadbeef
}

func (t *eagerTree) corruptCB(cb arch.BlockID) { t.ctrHash[cb] ^= 0xdeadbeef }

func (t *eagerTree) minor(ref NodeRef, slot int) uint64 { return t.node(ref).minors[slot] }

func (t *eagerTree) trees() []*eagerTree { return []*eagerTree{t} }

// eagerRef is the reference side of the oracle: one eager tree, or an
// eager forest laid out like a Partitioned one.
type eagerRef interface {
	writebackCB(cb arch.BlockID, contents [arch.BlockSize]byte) *eagerUpdate
	writebackNode(ref NodeRef) *eagerUpdate
	verifyCB(cb arch.BlockID, contents [arch.BlockSize]byte) bool
	verifyNode(ref NodeRef) bool
	corruptNode(ref NodeRef)
	corruptCB(cb arch.BlockID)
	trees() []*eagerTree
}

// eagerForest mirrors a Partitioned forest with one eager tree per
// domain, borrowing the forest's reference globalization.
type eagerForest struct {
	p    *Partitioned
	doms []*eagerTree
}

func newEagerForest(p *Partitioned) *eagerForest {
	f := &eagerForest{p: p}
	for _, d := range p.domains {
		f.doms = append(f.doms, newEager(d.cfg, hasher()))
	}
	return f
}

func (f *eagerForest) globalize(d int, up *eagerUpdate) *eagerUpdate {
	if up != nil {
		up.ref = f.p.globalize(d, up.ref)
	}
	return up
}

func (f *eagerForest) writebackCB(cb arch.BlockID, contents [arch.BlockSize]byte) *eagerUpdate {
	d := f.p.DomainOfCounterBlock(cb)
	return f.globalize(d, f.doms[d].writebackCB(cb, contents))
}

func (f *eagerForest) writebackNode(ref NodeRef) *eagerUpdate {
	d, local := f.p.localize(ref)
	return f.globalize(d, f.doms[d].writebackNode(local))
}

func (f *eagerForest) verifyCB(cb arch.BlockID, contents [arch.BlockSize]byte) bool {
	return f.doms[f.p.DomainOfCounterBlock(cb)].verifyCB(cb, contents)
}

func (f *eagerForest) verifyNode(ref NodeRef) bool {
	d, local := f.p.localize(ref)
	return f.doms[d].verifyNode(local)
}

func (f *eagerForest) corruptNode(ref NodeRef) {
	d, local := f.p.localize(ref)
	f.doms[d].corruptNode(local)
}

func (f *eagerForest) corruptCB(cb arch.BlockID) { f.doms[f.p.DomainOfCounterBlock(cb)].corruptCB(cb) }

func (f *eagerForest) trees() []*eagerTree { return f.doms }

// lazyTrees returns the VTrees behind tr, one per domain of a forest.
func lazyTrees(tr Tree) []*VTree {
	if p, ok := tr.(*Partitioned); ok {
		return p.domains
	}
	return []*VTree{tr.(*VTree)}
}

// effective is the state ref would have once caught up, read without
// creating or syncing it: a node in sync as stored, a stale one with its
// recomputed major (and, if that changed, zero minors and no hash), a
// missing one as new.
func effective(t *VTree, ref NodeRef) vnode {
	n := t.nodes[ref.Level][ref.Index]
	switch {
	case n == nil:
		return vnode{major: t.ancestorResets(ref)}
	case n.seq == t.resetSeq:
		return *n
	}
	if major := n.resets + t.ancestorResets(ref); major != n.major {
		return vnode{major: major}
	}
	return *n
}

// stateMismatch compares the hidden state behind the two models, without
// disturbing the lazy side: every node's effective major and embedded
// hash, and every counter block's hash entry as the lazy tree reads it
// (one retired by its major reads as absent). It returns "" when they
// agree.
func stateMismatch(lazy *VTree, eager *eagerTree) string {
	for l, count := range lazy.geo.counts {
		for i := 0; i < count; i++ {
			ref := NodeRef{Level: l, Index: i}
			n, e := effective(lazy, ref), eager.node(ref)
			if n.major != e.major || n.hashSet != e.hashSet || n.hashSet && n.hash != e.hash {
				return fmt.Sprintf("%v: lazy major %d hash %v/%#x, eager major %d hash %v/%#x",
					ref, n.major, n.hashSet, n.hash, e.major, e.hashSet, e.hash)
			}
		}
	}
	for i := 0; i < lazy.geo.nCB; i++ {
		c := cb(lazy.geo.cbOff + i)
		got, ok := lazy.ctrHash[c]
		ok = ok && got.major == effective(lazy, lazy.LeafRef(c)).major
		want, wantOK := eager.ctrHash[c]
		if ok != wantOK || ok && got.hash != want {
			return fmt.Sprintf("counter block %#x: lazy hash %v/%#x, eager %v/%#x", uint64(c), ok, got.hash, wantOK, want)
		}
	}
	return ""
}

// levelCounts returns the node count of each stored level of tr.
func levelCounts(tr Tree) []int {
	if p, ok := tr.(*Partitioned); ok {
		out := make([]int, len(p.counts))
		for l, c := range p.counts {
			out[l] = c * p.Domains()
		}
		return out
	}
	return tr.(*VTree).geo.counts
}

// The lazy subtree reset is indistinguishable from the eager one: seeded
// random sequences of every Tree mutation and check, driven through both,
// give the same return values, the same overflows with the same re-hashed
// blocks in the same order, and the same minor counter in every node
// after every step. Behind the API, every node's major and hash and every
// counter-block hash agree too. Two- and three-bit minors overflow at
// several levels; the counter-block counts leave a ragged last subtree,
// and the larger trees leave nodes untouched until after resets above
// them. MinorValue catches up the node it reads, so half the seeds read
// minors only every 97 steps and leave the operations to meet stale
// nodes.
func TestLazyResetMatchesEagerOracle(t *testing.T) {
	const steps = 4000
	for _, tc := range []struct {
		name  string
		build func() (Tree, eagerRef)
	}{
		{"SCT-2bit-ragged", func() (Tree, eagerRef) {
			cfg := VTreeConfig{Name: "SCT", Arities: []int{4, 3, 2}, MinorBits: 2, CounterBlocks: 19}
			return NewVTree(cfg, hasher()), newEager(cfg, hasher())
		}},
		{"SCT-3bit-4level-ragged", func() (Tree, eagerRef) {
			cfg := VTreeConfig{Name: "SCT", Arities: []int{4, 4, 3, 2}, MinorBits: 3, CounterBlocks: 90}
			return NewVTree(cfg, hasher()), newEager(cfg, hasher())
		}},
		{"SCT-2bit-wide-ragged", func() (Tree, eagerRef) {
			cfg := VTreeConfig{Name: "SCT", Arities: []int{4, 4, 4}, MinorBits: 2, CounterBlocks: 121}
			return NewVTree(cfg, hasher()), newEager(cfg, hasher())
		}},
		{"Partitioned-2bit-ragged", func() (Tree, eagerRef) {
			p := NewPartitioned(VTreeConfig{Name: "SCT", Arities: []int{4, 3, 2}, MinorBits: 2, CounterBlocks: 3 * 19}, 3, hasher())
			return p, newEagerForest(p)
		}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			minorsEvery := 1
			if seed > 2 {
				minorsEvery = 97
			}
			lazy, eager := tc.build()
			counts := levelCounts(lazy)
			rng := rand.New(rand.NewSource(seed))
			randRef := func() NodeRef {
				l := rng.Intn(len(counts))
				return NodeRef{Level: l, Index: rng.Intn(counts[l])}
			}
			randCB := func() arch.BlockID { return cb(rng.Intn(lazy.CounterBlockCapacity())) }
			// A small pool of contents, so verifications both pass and fail.
			randContents := func() (c [arch.BlockSize]byte) {
				c[0] = byte(rng.Intn(3))
				return c
			}
			overflowLevels := map[int]bool{}
			for step := 0; step < steps; step++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s seed %d step %d: "+format, append([]any{tc.name, seed, step}, args...)...)
				}
				checkUpdate := func(got *Update, want *eagerUpdate) {
					t.Helper()
					if (got != nil) != (want != nil) {
						fail("lazy update %+v, eager %+v", got, want)
					}
					if got == nil {
						return
					}
					if !got.Overflow || got.OverflowRef != want.ref {
						fail("lazy overflow at %v, eager at %v", got.OverflowRef, want.ref)
					}
					if g := expand(got.Rehashed); !slices.Equal(g, want.rehashed) {
						fail("lazy re-hashed %v, eager %v", g, want.rehashed)
					}
					overflowLevels[want.ref.Level] = true
				}
				switch op := rng.Intn(10); {
				case op < 4:
					c, contents := randCB(), randContents()
					checkUpdate(lazy.WritebackCounterBlock(c, contents), eager.writebackCB(c, contents))
				case op < 7:
					ref := randRef()
					checkUpdate(lazy.WritebackNode(ref), eager.writebackNode(ref))
				case op == 7:
					c, contents := randCB(), randContents()
					if got, want := lazy.VerifyCounterBlock(c, contents), eager.verifyCB(c, contents); got != want {
						fail("VerifyCounterBlock(%#x) = %v, eager %v", uint64(c), got, want)
					}
				case op == 8:
					ref := randRef()
					if got, want := lazy.VerifyNode(ref), eager.verifyNode(ref); got != want {
						fail("VerifyNode(%v) = %v, eager %v", ref, got, want)
					}
				default:
					if rng.Intn(2) == 0 {
						ref := randRef()
						lazy.CorruptNode(ref)
						eager.corruptNode(ref)
					} else {
						c := randCB()
						lazy.CorruptCounterHash(c)
						eager.corruptCB(c)
					}
				}
				for d, lt := range lazyTrees(lazy) {
					if msg := stateMismatch(lt, eager.trees()[d]); msg != "" {
						fail("domain %d: %s", d, msg)
					}
				}
				if step%minorsEvery != 0 {
					continue
				}
				for d, lt := range lazyTrees(lazy) {
					for l, n := range lt.geo.counts {
						for i := 0; i < n; i++ {
							ref := NodeRef{Level: l, Index: i}
							for s := 0; s < lt.Arity(l); s++ {
								if got, want := lt.MinorValue(ref, s), eager.trees()[d].minor(ref, s); got != want {
									fail("domain %d: MinorValue(%v, %d) = %d, eager %d", d, ref, s, got, want)
								}
							}
						}
					}
				}
			}
			if len(overflowLevels) < 2 {
				t.Errorf("%s seed %d: overflows only at levels %v; the oracle needs several", tc.name, seed, overflowLevels)
			}
		}
	}
}
