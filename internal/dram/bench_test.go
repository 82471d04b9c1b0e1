package dram

import (
	"testing"

	"metaleak/internal/arch"
)

// BenchmarkDRAMBackground measures posting one block of a background
// burst — the per-block cost of a subtree re-hash or re-encryption sweep,
// dominated by the block-to-bank mapping.
func BenchmarkDRAMBackground(b *testing.B) {
	d := New(DefaultConfig())
	base := arch.CounterBase.Block()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Background(arch.Cycles(i), base+arch.BlockID(i&0xffff), 80)
	}
}

// BenchmarkDRAMBackgroundRun measures posting a 32-block run — one leaf's
// counter blocks in a subtree re-hash — as a single background call.
func BenchmarkDRAMBackgroundRun(b *testing.B) {
	d := New(DefaultConfig())
	base := arch.CounterBase.Block()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.BackgroundRun(arch.Cycles(i), base+arch.BlockID(i*32&0xffff), 32, 80)
	}
}
