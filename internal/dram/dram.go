// Package dram models the main memory of the simulated machine: channels,
// ranks and banks with open-row policy, an FR-FCFS-approximating read path,
// and a 64-entry write queue with merging — the pieces of Table I's memory
// controller that MetaLeak's timing observables depend on.
//
// Two properties matter for the attacks and are modelled carefully:
//
//  1. Bank contention: a read issued to a bank that is busy (e.g. because a
//     counter-overflow re-encryption burst is draining into it) is delayed
//     until the bank frees up. This is the observable of MetaLeak-C
//     (Fig. 8: two latency bands ~2000 cycles apart).
//  2. Write buffering and merging: writes are not serviced immediately, and
//     back-to-back writes to the same block merge in the queue. The
//     attacker must flush the queue with redundant writes (§VI-B).
package dram

import (
	"math/bits"

	"metaleak/internal/arch"
)

// Config describes the DRAM geometry and timing. The defaults produced by
// DefaultConfig correspond to the dual-channel, 2 ranks/channel system of
// Table I.
type Config struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBytes     int // row buffer size per bank

	// Timing, in cycles.
	RowHit      arch.Cycles // CAS only
	RowMiss     arch.Cycles // activate + CAS (bank idle/precharged)
	RowConflict arch.Cycles // precharge + activate + CAS
	Bus         arch.Cycles // data transfer
	WriteLat    arch.Cycles // bank occupancy per serviced write

	WriteQueueDepth int // entries before a forced drain (Table I: 64)
	DrainBatch      int // writes drained per forced drain

	// RefreshEvery/RefreshPenalty inject periodic refresh delay as noise.
	// Zero disables refresh noise.
	RefreshEvery   arch.Cycles
	RefreshPenalty arch.Cycles
}

// DefaultConfig returns the Table I memory system.
func DefaultConfig() Config {
	return Config{
		Channels:        2,
		RanksPerChan:    2,
		BanksPerRank:    8,
		RowBytes:        8192,
		RowHit:          36,
		RowMiss:         66,
		RowConflict:     96,
		Bus:             4,
		WriteLat:        36,
		WriteQueueDepth: 64,
		DrainBatch:      16,
		RefreshEvery:    0,
		RefreshPenalty:  0,
	}
}

// Banks returns the total number of banks.
func (c Config) Banks() int { return c.Channels * c.RanksPerChan * c.BanksPerRank }

// Mapping is a geometry's block-to-row and block-to-bank address mapping.
// Row-granular interleaving with an XOR-based bank hash (standard in
// modern memory controllers) spreads nearby metadata regions across banks,
// while the 64 blocks of a page still share a bank and (typically) a row —
// which is what makes re-encryption bursts serialize behind one bank.
//
// The row divide and the bank modulo are precomputed as a shift and a mask
// when blocks-per-row and the bank count are powers of two (every shipped
// configuration); any other geometry keeps the exact divide. Both the DRAM
// model and the leakage-contract projector map addresses through it.
type Mapping struct {
	blocksPerRow uint64
	banks        uint64
	rowShift     uint   // log2(blocksPerRow) when rowPow2
	bankMask     uint64 // banks-1 when bankPow2
	rowPow2      bool
	bankPow2     bool
}

// Mapping precomputes the configuration's address mapping.
func (c Config) Mapping() Mapping {
	m := Mapping{blocksPerRow: uint64(c.RowBytes / arch.BlockSize), banks: uint64(c.Banks())}
	if n := m.blocksPerRow; n > 0 && n&(n-1) == 0 {
		m.rowShift, m.rowPow2 = uint(bits.TrailingZeros64(n)), true
	}
	if n := m.banks; n > 0 && n&(n-1) == 0 {
		m.bankMask, m.bankPow2 = n-1, true
	}
	return m
}

// Row returns the global row index a block maps to.
func (m Mapping) Row(b arch.BlockID) uint64 {
	if m.rowPow2 {
		return uint64(b) >> m.rowShift
	}
	return uint64(b) / m.blocksPerRow
}

// rowLeft returns how many blocks from b to the end of b's row, b included.
func (m Mapping) rowLeft(b arch.BlockID) uint64 {
	if m.rowPow2 {
		return m.blocksPerRow - uint64(b)&(m.blocksPerRow-1)
	}
	return m.blocksPerRow - uint64(b)%m.blocksPerRow
}

// Bank returns the bank index a block maps to.
func (m Mapping) Bank(b arch.BlockID) int { return m.bankOfRow(m.Row(b)) }

// bankOfRow hashes a global row index onto a bank.
func (m Mapping) bankOfRow(row uint64) int {
	h := row ^ row>>5 ^ row>>10 ^ row>>17
	if m.bankPow2 {
		return int(h & m.bankMask)
	}
	return int(h % m.banks)
}

type bank struct {
	openRow   int64 // -1: precharged
	busyUntil arch.Cycles
}

type writeReq struct {
	block arch.BlockID
}

// Stats counts DRAM events.
type Stats struct {
	Reads       uint64
	Writes      uint64 // enqueued
	WriteMerges uint64
	RowHits     uint64
	RowMisses   uint64
	Drains      uint64
	Refreshes   uint64
}

// DRAM is the main memory model. Not safe for concurrent use.
type DRAM struct {
	cfg   Config
	m     Mapping
	banks []bank
	wq    []writeReq
	// wqSet indexes the blocks currently in wq so the merge check in Write
	// is a map probe instead of an O(depth) scan (merging guarantees at
	// most one queue entry per block, so set membership is exact).
	wqSet       map[arch.BlockID]struct{}
	stats       Stats
	nextRefresh arch.Cycles
}

// New builds a DRAM model.
func New(cfg Config) *DRAM {
	d := &DRAM{
		cfg:   cfg,
		m:     cfg.Mapping(),
		banks: make([]bank, cfg.Banks()),
		wqSet: make(map[arch.BlockID]struct{}, cfg.WriteQueueDepth),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	if cfg.RefreshEvery > 0 {
		d.nextRefresh = cfg.RefreshEvery
	}
	return d
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of the event counters.
func (d *DRAM) Stats() Stats { return d.stats }

// BankOf returns the bank index a block maps to (see Mapping).
func (d *DRAM) BankOf(b arch.BlockID) int { return d.m.Bank(b) }

// RowOf returns the identity of the row a block maps to (used only for
// open-row comparisons, so the global row index serves).
func (d *DRAM) RowOf(b arch.BlockID) int64 { return int64(d.m.Row(b)) }

// SameRow reports whether two blocks share a physical DRAM row (same
// bank, same row): the blast radius of a row-level fault — a disturbed
// wordline corrupts neighbouring blocks together, not one at a time.
func (d *DRAM) SameRow(a, b arch.BlockID) bool {
	return d.RowOf(a) == d.RowOf(b) && d.BankOf(a) == d.BankOf(b)
}

// access performs one bank access starting no earlier than now and returns
// its completion time.
func (d *DRAM) access(now arch.Cycles, b arch.BlockID, occupancy arch.Cycles) arch.Cycles {
	return d.open(now, d.m.Row(b), occupancy).busyUntil + d.cfg.Bus
}

// open performs one access to a row, starting no earlier than now, and
// returns its bank, busy until the access completes.
func (d *DRAM) open(now arch.Cycles, row uint64, occupancy arch.Cycles) *bank {
	bk := &d.banks[d.m.bankOfRow(row)]
	start := now
	if bk.busyUntil > start {
		start = bk.busyUntil
	}
	var lat arch.Cycles
	switch {
	case bk.openRow == int64(row):
		lat = d.cfg.RowHit
		d.stats.RowHits++
	case bk.openRow == -1:
		lat = d.cfg.RowMiss
		d.stats.RowMisses++
	default:
		lat = d.cfg.RowConflict
		d.stats.RowMisses++
	}
	if occupancy > lat {
		lat = occupancy
	}
	bk.openRow = int64(row)
	bk.busyUntil = start + lat
	return bk
}

// Read services a read for the block, returning its completion time. Reads
// have priority over buffered writes (FR-FCFS read-first approximation),
// but a bank already busy servicing earlier traffic delays the read — the
// key contention observable.
func (d *DRAM) Read(now arch.Cycles, b arch.BlockID) arch.Cycles {
	d.stats.Reads++
	now = d.maybeRefresh(now)
	if len(d.wq) >= d.cfg.WriteQueueDepth {
		now = d.drain(now, d.cfg.DrainBatch)
	}
	return d.access(now, b, 0)
}

// Write enqueues a write for the block. If a write to the same block is
// already pending the two merge. When the queue is full a batch of writes
// is drained into the banks first. The returned time is when the enqueue
// completes from the issuing side (not when data reaches the array).
func (d *DRAM) Write(now arch.Cycles, b arch.BlockID) arch.Cycles {
	d.stats.Writes++
	now = d.maybeRefresh(now)
	if _, pending := d.wqSet[b]; pending {
		d.stats.WriteMerges++
		return now + 1
	}
	if len(d.wq) >= d.cfg.WriteQueueDepth {
		now = d.drain(now, d.cfg.DrainBatch)
	}
	d.wq = append(d.wq, writeReq{block: b})
	d.wqSet[b] = struct{}{}
	return now + 1
}

// drain services up to n queued writes, occupying their banks.
func (d *DRAM) drain(now arch.Cycles, n int) arch.Cycles {
	if n > len(d.wq) {
		n = len(d.wq)
	}
	d.stats.Drains++
	end := now
	for i := 0; i < n; i++ {
		done := d.access(now, d.wq[i].block, d.cfg.WriteLat)
		if done > end {
			end = done
		}
		delete(d.wqSet, d.wq[i].block)
	}
	d.wq = d.wq[n:]
	return now // the issuing side does not stall for the drain itself
}

// FlushWrites forces the entire write queue into the banks (the effect the
// attacker achieves with redundant writes in §VI-B). It returns when the
// last write completes.
func (d *DRAM) FlushWrites(now arch.Cycles) arch.Cycles {
	end := now
	for _, w := range d.wq {
		done := d.access(now, w.block, d.cfg.WriteLat)
		if done > end {
			end = done
		}
		delete(d.wqSet, w.block)
	}
	d.wq = d.wq[:0]
	return end
}

// PendingWrites returns the current write queue depth.
func (d *DRAM) PendingWrites() int { return len(d.wq) }

// BankBusyUntil exposes a bank's busy horizon (diagnostics and tests).
func (d *DRAM) BankBusyUntil(bankIdx int) arch.Cycles { return d.banks[bankIdx].busyUntil }

func (d *DRAM) maybeRefresh(now arch.Cycles) arch.Cycles {
	if d.cfg.RefreshEvery == 0 {
		return now
	}
	if now >= d.nextRefresh {
		d.stats.Refreshes++
		d.nextRefresh = now + d.cfg.RefreshEvery
		return now + d.cfg.RefreshPenalty
	}
	return now
}

// Background occupies a block's bank starting no earlier than now, without
// reporting completion to the issuer — the model for hardware-managed
// bursts (counter-overflow re-encryption, subtree re-hashing) that proceed
// behind the memory controller while execution continues. Foreground reads
// to the same bank are delayed until the burst drains past them.
func (d *DRAM) Background(now arch.Cycles, b arch.BlockID, occupancy arch.Cycles) {
	//metalint:allow cycleleak fire-and-forget by design: the burst's completion time is invisible to the issuer, only bank occupancy matters
	d.access(now, b, occupancy)
}

// BackgroundRun posts n consecutive blocks from first as a background
// burst, with exactly the effect of n Background calls in block order. It
// works one row segment at a time: the segment's first block is an
// ordinary access, which leaves the row open and the bank busy past now,
// so each of the other blocks is a row hit that starts when the bank frees
// up and extends its busy horizon by max(occupancy, RowHit).
func (d *DRAM) BackgroundRun(now arch.Cycles, first arch.BlockID, n int, occupancy arch.Cycles) {
	hit := max(occupancy, d.cfg.RowHit)
	for n > 0 {
		k := int(min(uint64(n), d.m.rowLeft(first)))
		bk := d.open(now, d.m.Row(first), occupancy)
		bk.busyUntil += arch.Cycles(k-1) * hit
		d.stats.RowHits += uint64(k - 1)
		first += arch.BlockID(k)
		n -= k
	}
}
