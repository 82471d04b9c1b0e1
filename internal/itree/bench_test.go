package itree

import "testing"

// BenchmarkSubtreeReset measures one tree-minor overflow's subtree reset
// on the Table I split-counter tree: a leaf (the node and its 32 counter
// blocks), an L1 node (529 blocks) and an L4 node (2.17 M blocks, the
// fig15c MetaLeak-C target), the steady-state cost behind fig15c's
// overflow-heavy write path.
func BenchmarkSubtreeReset(b *testing.B) {
	for _, ref := range []NodeRef{{Level: 0, Index: 7}, {Level: 1, Index: 3}, {Level: 4, Index: 0}} {
		b.Run(ref.String(), func(b *testing.B) {
			tr := NewVTree(VTreeConfig{
				Name: "SCT", Arities: []int{32, 16, 16, 16, 16, 16}, MinorBits: 7, CounterBlocks: 1 << 24,
			}, hasher())
			tr.overflow(ref)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.overflow(ref)
			}
		})
	}
}
