package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"metaleak/internal/arch"
	"metaleak/internal/crypto"
	"metaleak/internal/dispatch"
	"metaleak/internal/faults"
	"metaleak/internal/machine"
	"metaleak/internal/runner"
	"metaleak/internal/secmem"
)

// The chaos drivers are the executable form of the repo's robustness
// claims, run by `metaleak chaos` and the test suite:
//
//   - ChaosMatrix proves the machine-level claim: every planned
//     corruption of every metadata class, on every secure design point,
//     on both the read and the writeback path, is caught by the
//     controller's ordinary verification — zero silent escapes.
//   - ChaosSweep proves the harness-level claim: a sweep under injected
//     panics, errors, stalls, and checkpoint truncation completes,
//     quarantines what cannot be recovered, and produces byte-identical
//     rows for unaffected cells at any parallelism and across a
//     crash/resume.

// ChaosCase identifies one cell of the tamper-detection matrix.
type ChaosCase struct {
	Config string
	Class  secmem.InjectClass
	Write  bool // fault planned at a writeback-path access
}

// Op renders the access direction the fault was planned at.
func (c ChaosCase) Op() string {
	if c.Write {
		return "write"
	}
	return "read"
}

// ChaosOutcome is one matrix cell's verdict.
type ChaosOutcome struct {
	ChaosCase
	// Injected counts corruptions actually applied (a row fault counts
	// its whole blast radius).
	Injected uint64
	// Detected counts the tamper detections the injections provoked.
	Detected uint64
	// Undelivered counts planned injections that never fired — a plan
	// bug, counted as an escape.
	Undelivered int
}

// Escaped reports whether any corruption went undetected (or was never
// delivered, which would make "detected" vacuous).
func (o ChaosOutcome) Escaped() bool {
	return o.Undelivered > 0 || o.Injected == 0 || o.Detected == 0
}

// chaosDesigns enumerates the secure design points the matrix covers:
// the paper's three base configs plus each defence/ablation knob that
// touches the metadata pipeline. The insecure baseline is deliberately
// absent — it detects nothing by construction.
func chaosDesigns() []machine.DesignPoint {
	small := func(dp machine.DesignPoint, name string) machine.DesignPoint {
		dp.Name = name
		dp.SecurePages = 1 << 14
		return dp
	}
	sct := small(machine.ConfigSCT(), "sct")
	ht := small(machine.ConfigHT(), "ht")
	sgx := small(machine.ConfigSGX(), "sgx")
	gc := small(machine.ConfigSCT(), "sct+gc")
	gc.Counter = machine.CounterGC
	mirage := small(machine.ConfigSCT(), "sct+mirage")
	mirage.RandomizedMeta = true
	iso := small(machine.ConfigSCT(), "sct+iso4")
	iso.IsolatedDomains = 4
	fast := small(machine.ConfigSCT(), "sct+fastcrypto")
	fast.FastCrypto = true
	return []machine.DesignPoint{sct, ht, sgx, gc, mirage, iso, fast}
}

// chaosClasses is the metadata taxonomy the matrix crosses with the
// designs — every class the fault engine can corrupt.
var chaosClasses = []secmem.InjectClass{
	secmem.InjectCiphertext, secmem.InjectMAC, secmem.InjectMinor,
	secmem.InjectMajor, secmem.InjectNode, secmem.InjectRow,
}

// ChaosMatrix runs the full tamper-detection matrix: every secure
// design point × every metadata class × both access directions, one
// fresh machine per cell, every fault planned through the spec grammar
// and delivered through the production injection path. The returned
// outcomes are in deterministic matrix order.
func ChaosMatrix(seed uint64) []ChaosOutcome {
	var out []ChaosOutcome
	for di, dp := range chaosDesigns() {
		for ci, cl := range chaosClasses {
			for _, write := range []bool{false, true} {
				cs := ChaosCase{Config: dp.Name, Class: cl, Write: write}
				out = append(out, chaosCase(cs, dp,
					arch.NewRNG(seed, uint64(di), uint64(ci)).Uint64()))
			}
		}
	}
	return out
}

// chaosCase drives one matrix cell: warm a machine, plan exactly one
// fault at the next access through the real spec/injector path, perform
// the access, then close the detection window (a follow-up read for
// deferred classes, an integrity audit for row blast radii) and score.
func chaosCase(cs ChaosCase, dp machine.DesignPoint, seed uint64) ChaosOutcome {
	dp.Seed = seed
	sys := machine.NewSystem(dp)
	ctrl := sys.Ctrl

	// Warm-up: materialize a row's worth of neighbours around the target
	// block and establish MACs, counters, and tree state, so every fault
	// class has honest history to corrupt.
	page := arch.PageID(3)
	target := page.Block(1)
	now := arch.Cycles(0)
	for i := 0; i < 8; i++ {
		var plain crypto.Block
		plain[0] = byte(0xA0 + i)
		ctrl.Write(now, page.Block(i), plain)
		now += 10_000
	}
	for i := 0; i < 8; i++ {
		ctrl.Read(now, page.Block(i))
		now += 10_000
	}

	// Plan one fault of the case's class at the very next access,
	// through the production grammar and injector.
	plan := faults.MustParse(fmt.Sprintf("machine:%s@%d", cs.Class, ctrl.AccessSeq()+1))
	inj := plan.Injector(seed)
	ctrl.SetInjector(inj)

	before := ctrl.Stats().TamperDetections
	if cs.Write {
		var plain crypto.Block
		plain[0] = 0x5A
		ctrl.Write(now, target, plain)
	} else {
		ctrl.Read(now, target)
	}
	now += 10_000
	// Close the window: deferred classes (ciphertext/MAC planned at a
	// write) fire on this read; row blast radii are swept by the audit.
	ctrl.Read(now, target)
	now += 10_000
	ctrl.AuditIntegrity()
	ctrl.SetInjector(nil)

	st := ctrl.Stats()
	return ChaosOutcome{
		ChaosCase:   cs,
		Injected:    st.FaultsInjected,
		Detected:    st.TamperDetections - before,
		Undelivered: inj.Outstanding(),
	}
}

// ChaosSweep checks the harness-level invariants end to end inside dir
// (a scratch directory for checkpoint files). It returns the first
// violated invariant, or nil when all hold:
//
//  1. Recovery: a sweep whose cells panic and error on leading attempts,
//     run with retries, completes with rows byte-identical to a
//     fault-free sweep — at -par 1 and -par 8.
//  2. Quarantine: a cell that exhausts its attempt budget is reported
//     as a structured failure row; every other cell's row is untouched.
//  3. Crash/resume: a sweep whose checkpoint writer "dies" mid-append
//     (torn trailing line) resumes — salvaging complete rows, logging
//     the torn one — and converges to the fault-free rows.
func ChaosSweep(ctx context.Context, dir string, seed uint64) error {
	axes := SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0},
		Seeds:     4,
		Seed:      seed,
		Bits:      8,
		Set:       []string{"SecurePages=16384", "FastCrypto=true"},
	}

	clean, err := SweepOpts(ctx, axes, SweepOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("chaos sweep: clean run: %w", err)
	}

	// 1. Recovery under panics and repeated errors, both parallelisms.
	recoveryPlan := faults.MustParse("harness:panic@1;harness:err@2x2")
	for _, par := range []int{1, 8} {
		rows, err := SweepOpts(ctx, axes, SweepOptions{
			Workers: par,
			Retries: 2,
			Backoff: func(int) time.Duration { return 0 },
			Faults:  recoveryPlan.NewHarness(),
		})
		if err != nil {
			return fmt.Errorf("chaos sweep: faulted run (par %d): %w", par, err)
		}
		if err := rowsIdentical(clean, rows); err != nil {
			return fmt.Errorf("chaos sweep: recovered rows differ from clean at par %d: %w", par, err)
		}
	}

	// 2. Quarantine: cell 0 fails more times than the budget allows.
	qPlan := faults.MustParse("harness:err@0x3")
	rows, err := SweepOpts(ctx, axes, SweepOptions{
		Workers: 2,
		Retries: 1,
		Faults:  qPlan.NewHarness(),
	})
	if err != nil {
		return fmt.Errorf("chaos sweep: quarantine run: %w", err)
	}
	if len(rows) != len(clean) {
		return fmt.Errorf("chaos sweep: quarantine run returned %d rows, want %d", len(rows), len(clean))
	}
	q := rows[0]
	if !q.Quarantined || q.Attempts != 2 || q.Err == "" {
		return fmt.Errorf("chaos sweep: cell 0 not quarantined as expected: %+v", q)
	}
	if err := rowsIdentical(clean[1:], rows[1:]); err != nil {
		return fmt.Errorf("chaos sweep: quarantine perturbed unaffected rows: %w", err)
	}

	// 3. Crash mid-append, then resume from the torn file.
	cpPath := dir + "/chaos-checkpoint.jsonl"
	os.Remove(cpPath)
	truncPlan := faults.MustParse("harness:trunc@2")
	crashed, err := SweepOpts(ctx, axes, SweepOptions{
		Workers:    1,
		Checkpoint: cpPath,
		Faults:     truncPlan.NewHarness(),
	})
	if err != nil {
		return fmt.Errorf("chaos sweep: crashing run: %w", err)
	}
	if err := rowsIdentical(clean, crashed); err != nil {
		return fmt.Errorf("chaos sweep: crashing run's in-memory rows differ: %w", err)
	}
	cp, err := openCheckpoint(sweepKind, cpPath, axes)
	if err != nil {
		return fmt.Errorf("chaos sweep: resume open after tear: %w", err)
	}
	torn := cp.Discarded()
	salvaged := len(cp.Completed())
	cp.Close()
	if torn == "" {
		return fmt.Errorf("chaos sweep: expected a torn trailing line to salvage, found none")
	}
	if salvaged != 1 {
		return fmt.Errorf("chaos sweep: salvaged %d rows from torn checkpoint, want 1", salvaged)
	}
	resumed, err := SweepOpts(ctx, axes, SweepOptions{Workers: 2, Checkpoint: cpPath})
	if err != nil {
		return fmt.Errorf("chaos sweep: resumed run: %w", err)
	}
	if err := rowsIdentical(clean, resumed); err != nil {
		return fmt.Errorf("chaos sweep: resumed rows differ from clean: %w", err)
	}
	os.Remove(cpPath)
	return nil
}

// ChaosDispatch checks the distributed-sweep invariants end to end,
// using in-process workers over loopback TCP (the wire path is the real
// one; only process isolation is elided — subprocess workers are
// covered by the CLI tests and the CI smoke job). It returns the first
// violated invariant, or nil when all hold:
//
//  1. Identity: a 4-worker distributed run's rows are byte-identical to
//     the single-process sweep.
//  2. Drop/re-lease recovery: a worker that drops its connection while
//     holding a lease (harness:disconnect) loses the cell to a
//     surviving worker, and with retry budget left the finished grid is
//     still byte-identical — zero lost cells, zero visible scars.
//  3. Drop quarantine: a cell whose every lease dies exhausts its
//     budget and settles as a quarantined row carrying one
//     "worker disconnected mid-lease" error per revoked lease; every
//     other cell's row is untouched.
func ChaosDispatch(ctx context.Context, seed uint64) error {
	axes := SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0},
		Seeds:     4,
		Seed:      seed,
		Bits:      8,
		Set:       []string{"SecurePages=16384", "FastCrypto=true"},
	}
	clean, err := SweepOpts(ctx, axes, SweepOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("chaos dispatch: clean run: %w", err)
	}

	// 1. Identity at 4 workers, no faults.
	rows, err := sweepKind.runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{}, 4, nil)
	if err != nil {
		return fmt.Errorf("chaos dispatch: 4-worker run: %w", err)
	}
	if err := rowsIdentical(clean, rows); err != nil {
		return fmt.Errorf("chaos dispatch: 4-worker rows differ from single-process: %w", err)
	}

	// 2. One planned drop on cell 1's first lease; a retry recovers it.
	dropPlan := faults.MustParse("harness:disconnect@1x1")
	rows, err = sweepKind.runLocalDispatch(ctx, axes, SweepOptions{Retries: 1}, DispatchOptions{}, 4, dropPlan.NewHarness())
	if err != nil {
		return fmt.Errorf("chaos dispatch: drop/re-lease run: %w", err)
	}
	if err := rowsIdentical(clean, rows); err != nil {
		return fmt.Errorf("chaos dispatch: re-leased rows differ from clean: %w", err)
	}

	// 3. Every lease of cell 0 dies: the cell quarantines, nothing else
	// moves. Two drops against a 1-retry budget (2 leases) kill exactly
	// two of the four workers; the survivors finish the grid.
	qPlan := faults.MustParse("harness:disconnect@0x2")
	rows, err = sweepKind.runLocalDispatch(ctx, axes, SweepOptions{Retries: 1}, DispatchOptions{}, 4, qPlan.NewHarness())
	if err != nil {
		return fmt.Errorf("chaos dispatch: quarantine run: %w", err)
	}
	if len(rows) != len(clean) {
		return fmt.Errorf("chaos dispatch: quarantine run lost cells: %d rows, want %d", len(rows), len(clean))
	}
	q := rows[0]
	wantErr := dispatch.DisconnectErr + "\n" + dispatch.DisconnectErr
	if !q.Quarantined || q.Attempts != 2 || q.Err != wantErr {
		return fmt.Errorf("chaos dispatch: cell 0 not quarantined as expected: %+v", q)
	}
	if err := rowsIdentical(clean[1:], rows[1:]); err != nil {
		return fmt.Errorf("chaos dispatch: quarantine perturbed unaffected rows: %w", err)
	}
	return nil
}

// ChaosServe checks the self-healing service invariants end to end
// inside dir (a scratch directory for the cell-cache file) — the
// in-process model of `metaleak serve`'s supervised fleet and
// content-addressed result cache. It returns the first violated
// invariant, or nil when all hold:
//
//  1. Flap recovery: a supervised 2-worker fleet whose workers die on
//     planned leases (harness:flap) and are respawned with backoff,
//     against a coordinator revive budget and ZERO retries, completes
//     with rows byte-identical to the clean sweep — no quarantined
//     cells, no attempt-count scars, because revived leases never
//     consume the attempt budget.
//  2. Cache identity: a sweep run against a persisted result cache
//     populates it; reopening the cache file and resubmitting the
//     identical grid completes with zero workers attached, every row
//     cache-served, byte-identical to the clean sweep.
//  3. Overlap reuse: a *larger* grid (one more seed rep) against the
//     same cache computes only the genuinely new cells — the
//     content address excludes the grid index, so shared design
//     points are shared cells.
func ChaosServe(ctx context.Context, dir string, seed uint64) error {
	axes := SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0},
		Seeds:     6,
		Seed:      seed,
		Bits:      8,
		Set:       []string{"SecurePages=16384", "FastCrypto=true"},
	}
	clean, err := SweepOpts(ctx, axes, SweepOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("chaos serve: clean run: %w", err)
	}

	// 1. Flap recovery: the fleet loses a worker on cell 1's lease twice
	// and on cell 4's once; the supervisor respawns each death, the
	// revived worker re-dials, and the revive budget re-deals the revoked
	// leases without touching the (empty) retry budget.
	flapPlan := faults.MustParse("harness:flap@1x2;harness:flap@4")
	rows, err := sweepKind.runSupervisedDispatch(ctx, axes, SweepOptions{}, DispatchOptions{
		Revive:       8,
		RetryBackoff: runner.ExpBackoff(time.Millisecond),
	}, 2, flapPlan.NewHarness())
	if err != nil {
		return fmt.Errorf("chaos serve: flapping run: %w", err)
	}
	for i, r := range rows {
		if r.Quarantined || r.Err != "" {
			return fmt.Errorf("chaos serve: flapping run scarred cell %d: %+v", i, r)
		}
	}
	if err := rowsIdentical(clean, rows); err != nil {
		return fmt.Errorf("chaos serve: flapping rows differ from clean: %w", err)
	}

	// 2. Cache identity. First pass populates the persisted cache…
	cachePath := dir + "/chaos-cellcache.jsonl"
	os.Remove(cachePath)
	cache, err := OpenResultCache(cachePath)
	if err != nil {
		return fmt.Errorf("chaos serve: open cache: %w", err)
	}
	rows, err = sweepKind.runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{Cache: cache}, 2, nil)
	if err != nil {
		return fmt.Errorf("chaos serve: cache-populating run: %w", err)
	}
	if err := rowsIdentical(clean, rows); err != nil {
		return fmt.Errorf("chaos serve: cache-populating rows differ from clean: %w", err)
	}
	if cache.Len() != len(clean) {
		return fmt.Errorf("chaos serve: cache holds %d cells after populate, want %d", cache.Len(), len(clean))
	}
	if err := cache.Err(); err != nil {
		return fmt.Errorf("chaos serve: cache persistence: %w", err)
	}
	cache.Close()

	// …then the reloaded file serves the identical grid with zero
	// workers: every pending cell is a cache hit, so the fast path never
	// even starts the coordinator.
	cache, err = OpenResultCache(cachePath)
	if err != nil {
		return fmt.Errorf("chaos serve: reopen cache: %w", err)
	}
	var cached, computed int
	rows, err = sweepKind.runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{
		Cache: cache,
		OnRow: func(_ any, fromCache bool) {
			if fromCache {
				cached++
			} else {
				computed++
			}
		},
	}, 0, nil)
	if err != nil {
		return fmt.Errorf("chaos serve: cache-served run: %w", err)
	}
	if cached != len(clean) || computed != 0 {
		return fmt.Errorf("chaos serve: resubmission served %d cached + %d computed, want %d + 0",
			cached, computed, len(clean))
	}
	if err := rowsIdentical(clean, rows); err != nil {
		return fmt.Errorf("chaos serve: cache-served rows differ from clean: %w", err)
	}

	// 3. Overlap reuse: one more seed rep grows the grid; only the new
	// cells compute.
	big := axes
	big.Seeds = axes.Seeds + 1
	bigClean, err := SweepOpts(ctx, big, SweepOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("chaos serve: big clean run: %w", err)
	}
	cached, computed = 0, 0
	rows, err = sweepKind.runLocalDispatch(ctx, big, SweepOptions{}, DispatchOptions{
		Cache: cache,
		OnRow: func(_ any, fromCache bool) {
			if fromCache {
				cached++
			} else {
				computed++
			}
		},
	}, 2, nil)
	if err != nil {
		return fmt.Errorf("chaos serve: overlapping run: %w", err)
	}
	if want := len(bigClean) - len(clean); cached != len(clean) || computed != want {
		return fmt.Errorf("chaos serve: overlapping grid served %d cached + %d computed, want %d + %d",
			cached, computed, len(clean), want)
	}
	if err := rowsIdentical(bigClean, rows); err != nil {
		return fmt.Errorf("chaos serve: overlapping rows differ from clean: %w", err)
	}
	cache.Close()
	os.Remove(cachePath)
	return nil
}

// rowsIdentical compares two row slices byte-for-byte through their
// canonical JSON encoding — the same bytes the checkpoint persists.
func rowsIdentical[R any](want, got []R) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows vs %d", len(got), len(want))
	}
	for i := range want {
		w, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		g, err := json.Marshal(got[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(w, g) {
			return fmt.Errorf("row %d: %s != %s", i, g, w)
		}
	}
	return nil
}
