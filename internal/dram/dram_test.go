package dram

import (
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(100)
	cold := d.Read(0, b)
	t2 := d.Read(cold, b) // same row, now open
	if t2-cold >= cold {
		t.Fatalf("row hit (%d) not faster than miss (%d)", t2-cold, cold)
	}
}

func TestRowConflictSlower(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	b1 := arch.BlockID(0)
	// A block in the same bank but a different row.
	var b2 arch.BlockID
	for cand := arch.BlockID(1); ; cand += arch.BlockID(cfg.RowBytes / arch.BlockSize) {
		if d.BankOf(cand) == d.BankOf(b1) && d.RowOf(cand) != d.RowOf(b1) {
			b2 = cand
			break
		}
	}
	t1 := d.Read(0, b1)
	t2 := d.Read(t1, b2)
	lat2 := t2 - t1
	// Second access should pay a row conflict, costing more than a row hit.
	if lat2 <= cfg.RowHit+cfg.Bus {
		t.Fatalf("conflict latency %d not above row-hit %d", lat2, cfg.RowHit+cfg.Bus)
	}
}

func TestBankContentionDelaysRead(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(0)
	// Occupy the bank with a burst of accesses at time 0.
	var end arch.Cycles
	for i := 0; i < 10; i++ {
		end = d.access(0, b, d.cfg.WriteLat)
	}
	// A read issued at time 0 to the same bank completes only after.
	done := d.Read(0, b)
	if done < end {
		t.Fatalf("read completed at %d before bank freed at %d", done, end)
	}
	// A read to a different bank is unaffected.
	other := arch.BlockID(0)
	for cand := arch.BlockID(1); ; cand++ {
		if d.BankOf(cand) != d.BankOf(b) {
			other = cand
			break
		}
	}
	d2 := New(DefaultConfig())
	fast := d2.Read(0, other)
	if fast >= done {
		t.Fatalf("independent bank read %d not faster than contended %d", fast, done)
	}
}

func TestWriteMerging(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(7)
	d.Write(0, b)
	d.Write(1, b)
	d.Write(2, b)
	if d.PendingWrites() != 1 {
		t.Fatalf("writes did not merge: %d pending", d.PendingWrites())
	}
	if d.Stats().WriteMerges != 2 {
		t.Fatalf("merge count = %d", d.Stats().WriteMerges)
	}
}

func TestWriteQueueForcedDrain(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	for i := 0; i < cfg.WriteQueueDepth+1; i++ {
		d.Write(arch.Cycles(i), arch.BlockID(i*997)) // distinct blocks
	}
	if d.PendingWrites() > cfg.WriteQueueDepth {
		t.Fatalf("queue exceeded depth: %d", d.PendingWrites())
	}
	if d.Stats().Drains == 0 {
		t.Fatal("no forced drain happened")
	}
}

func TestFlushWritesEmptiesQueueAndOccupiesBanks(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 20; i++ {
		d.Write(0, arch.BlockID(i*131))
	}
	end := d.FlushWrites(100)
	if d.PendingWrites() != 0 {
		t.Fatal("flush left pending writes")
	}
	if end <= 100 {
		t.Fatal("flush cost no time")
	}
}

func TestRefreshNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEvery = 1000
	cfg.RefreshPenalty = 50
	d := New(cfg)
	d.Read(1500, arch.BlockID(1))
	if d.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d", d.Stats().Refreshes)
	}
}

// Property: completion time never precedes issue time, and consecutive
// reads to one bank never complete out of order.
func TestQuickMonotoneCompletion(t *testing.T) {
	d := New(DefaultConfig())
	var last arch.Cycles
	f := func(raw uint16, gap uint8) bool {
		b := arch.BlockID(raw)
		issue := last + arch.Cycles(gap)
		done := d.Read(issue, b)
		if done < issue {
			return false
		}
		if d.BankBusyUntil(d.BankOf(b)) > done {
			return false
		}
		last = issue
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: all banks are reachable, i.e. the XOR bank hash does not
// degenerate (every bank index appears for some block).
func TestBankHashCoversAllBanks(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	seen := make(map[int]bool)
	for b := arch.BlockID(0); b < 1<<16; b += 64 {
		seen[d.BankOf(b)] = true
	}
	if len(seen) != cfg.Banks() {
		t.Fatalf("bank hash reaches %d/%d banks", len(seen), cfg.Banks())
	}
}

func TestPageSharesBank(t *testing.T) {
	d := New(DefaultConfig())
	p := arch.PageID(42)
	bank := d.BankOf(p.Block(0))
	for i := 1; i < arch.BlocksPerPage; i++ {
		if d.BankOf(p.Block(i)) != bank {
			t.Fatalf("block %d of page in bank %d != %d", i, d.BankOf(p.Block(i)), bank)
		}
	}
}

func TestBackgroundOccupiesBankOnly(t *testing.T) {
	d := New(DefaultConfig())
	b := arch.BlockID(0)
	// Post a long background burst at t=0.
	for i := 0; i < 20; i++ {
		d.Background(0, b, 100)
	}
	// A read to the same bank at t=0 waits behind the burst...
	busy := d.BankBusyUntil(d.BankOf(b))
	if busy < 2000 {
		t.Fatalf("burst occupied only %d cycles", busy)
	}
	done := d.Read(0, b)
	if done < busy {
		t.Fatalf("read completed at %d inside the burst window ending %d", done, busy)
	}
	// ...while a different bank is free.
	var other arch.BlockID
	for cand := arch.BlockID(1); ; cand++ {
		if d.BankOf(cand) != d.BankOf(b) {
			other = cand
			break
		}
	}
	if fast := d.Read(0, other); fast >= busy {
		t.Fatalf("independent bank delayed by background burst: %d", fast)
	}
}

func TestDrainServicesOldestFirst(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Fill the queue exactly; record the first-enqueued block's bank.
	first := arch.BlockID(7)
	d.Write(0, first)
	for i := 1; i < cfg.WriteQueueDepth; i++ {
		d.Write(0, arch.BlockID(1000+i*997))
	}
	if d.PendingWrites() != cfg.WriteQueueDepth {
		t.Fatalf("queue depth %d", d.PendingWrites())
	}
	// Next write forces a drain of the front batch, which contains first.
	d.Write(0, arch.BlockID(999999))
	if d.BankBusyUntil(d.BankOf(first)) == 0 {
		t.Fatal("oldest write not serviced by forced drain")
	}
}

// TestMappingMatchesDivideFormula checks the precomputed shift/mask
// mapping against the general divide/modulo formula, on the shipped
// power-of-two geometry and on geometries where one or both of
// blocks-per-row and the bank count are not powers of two (which must
// keep the exact divide).
func TestMappingMatchesDivideFormula(t *testing.T) {
	geom := func(channels, rowBytes int) Config {
		c := DefaultConfig()
		c.Channels, c.RowBytes = channels, rowBytes
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"3ch-6KiB-rows", geom(3, 6144)},
		{"3ch-8KiB-rows", geom(3, 8192)},
		{"2ch-6KiB-rows", geom(2, 6144)},
		{"1ch-2KiB-rows", geom(1, 2048)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.cfg.Mapping()
			d := New(tc.cfg)
			perRow := uint64(tc.cfg.RowBytes / arch.BlockSize)
			banks := uint64(tc.cfg.Banks())
			check := func(b arch.BlockID) {
				row := uint64(b) / perRow
				h := row ^ row>>5 ^ row>>10 ^ row>>17
				wantBank := int(h % banks)
				if got := m.Row(b); got != row {
					t.Fatalf("Row(%#x) = %d, want %d", uint64(b), got, row)
				}
				if got := m.Bank(b); got != wantBank {
					t.Fatalf("Bank(%#x) = %d, want %d", uint64(b), got, wantBank)
				}
				if d.BankOf(b) != wantBank || d.RowOf(b) != int64(row) {
					t.Fatalf("DRAM(%#x) = bank %d row %d, want %d %d",
						uint64(b), d.BankOf(b), d.RowOf(b), wantBank, row)
				}
			}
			for b := arch.BlockID(0); b < 1<<16; b += 7 {
				check(b)
			}
			rng := arch.NewRNG(42)
			for i := 0; i < 4096; i++ {
				check(arch.BlockID(rng.Uint64() >> 20))
			}
			for _, region := range []arch.Addr{arch.CounterBase, arch.TreeBase} {
				check(region.Block())
			}
		})
	}
}
