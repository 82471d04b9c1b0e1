package core

import (
	"testing"

	"metaleak/internal/arch"
)

// BenchmarkBuildEvictionSet measures one eviction-set search on the
// Table I metadata cache (SCT counters, 64K secure pages): the attacker
// set-up step every MetaLeak-T monitor and covert channel pays. Targets
// walk distinct cache sets; the machine is rebuilt, off the clock, before
// its free frames run low.
func BenchmarkBuildEvictionSet(b *testing.B) {
	const perMachine = 256
	var (
		r *rig
		a *Attacker
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := i % perMachine
		if n == 0 {
			b.StopTimer()
			r = newRig(b, 1, 0)
			a = NewAttacker(r.sys, r.mc, 0, false)
			b.StartTimer()
		}
		tgt := r.mc.Counters().CounterBlock(arch.PageID(n).Block(0))
		if _, err := a.BuildEvictionSet(tgt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
