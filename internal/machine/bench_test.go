package machine

import "testing"

// BenchmarkNewSystem measures building a whole machine: caches, counters,
// integrity tree, DRAM and cores. Hunt rows build two per program, so
// construction cost bounds how many machines per second a leakage hunt
// can test.
func BenchmarkNewSystem(b *testing.B) {
	for _, dp := range []DesignPoint{ConfigSCT(), ConfigHT(), ConfigSGX()} {
		b.Run(dp.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewSystem(dp)
			}
		})
	}
}
