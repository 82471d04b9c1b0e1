package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"metaleak/internal/faults"
	"metaleak/internal/machine"
	"metaleak/internal/runner"
)

// The grid engine runs a deterministic grid of independent cells — the
// sweep's design points, the hunt's differential pairs — under the full
// execution policy: bounded per-cell deadlines, bounded retries with
// quarantine, checkpoint durability with torn-line salvage, the result
// cache, and distribution over dispatch workers (dispatch.go). It is
// written once; each engine contributes only a gridKind. A grid's rows
// are a pure function of its axes: policy decides whether a cell's row
// is a measurement or a quarantine report, never what the measurement
// is, so any worker count, steal schedule, or resume yields
// byte-identical rows.

// gridKind is one engine's definition over its axes A, cells C and rows
// R: how to expand and identify a grid, run one cell, and read or
// render a row.
type gridKind[A any, C comparable, R any] struct {
	// name is the job Kind and the error prefix ("sweep", "hunt").
	name string
	// format is the checkpoint format string; axesNames lists, for a
	// fingerprint-mismatch error, the axes a different grid may differ in.
	format, axesNames string

	normalize   func(A) A // applies defaults, so fingerprints agree with what runs
	validate    func(A) error
	set         func(A) []string // the design-point overrides every cell applies
	cells       func(A) []C      // deterministic grid order; cell i has index i
	fingerprint func(A) string
	runCell     func(A, C, []machine.FieldOverride) (R, error)

	index  func(R) int
	cellOf func(R) C
	errOf  func(R) string // "" for a clean row
	// failed renders a failed cell's row; quarantined marks a failure
	// under a retry policy, after the given number of attempts.
	failed  func(c C, err string, attempts int, quarantined bool) R
	reindex func(R, int) R
	// cacheKey is the cell's content address in the result cache: it
	// covers everything runCell reads except the grid index.
	cacheKey func(A, C) string
}

// SweepOptions configures how a grid executes — none of it changes
// what the cells compute, only how failures and durability are handled,
// so every option combination yields byte-identical rows for the cells
// that succeed. Sweep and hunt share it.
type SweepOptions struct {
	// Workers caps concurrent cells; <= 0 selects GOMAXPROCS.
	Workers int
	// Checkpoint, when non-empty, persists completed rows to this file
	// and resumes from it.
	Checkpoint string
	// Timeout bounds each cell attempt; 0 disables stall detection.
	Timeout time.Duration
	// Retries grants failed cells extra attempts; a cell that exhausts
	// them is quarantined (reported in its row, excluded from resume's
	// completed set so a later run retries it).
	Retries int
	// Backoff paces retry attempts; nil retries immediately.
	Backoff func(attempt int) time.Duration
	// Faults, when non-nil, injects the plan's harness-level failures:
	// trial panics/stalls/errors by cell index, and checkpoint-file
	// truncation. Machine-level faults do not go here — they travel as a
	// FaultSpec design-point override in the axes, where they are part
	// of the grid's identity.
	Faults *faults.Harness
	// Log, when non-nil, receives human-readable warnings (e.g. a torn
	// checkpoint line salvaged at resume). Results never depend on it.
	Log func(format string, args ...any)
}

// gridPrep is a grid ready to run: normalized axes, vetted overrides,
// the expanded cells, the open checkpoint (nil without one) with the
// rows it already holds, and the cells still to run.
type gridPrep[A any, C comparable, R any] struct {
	axes    A
	ovs     []machine.FieldOverride
	cells   []C
	cp      *checkpoint[A, C, R]
	done    map[int]R
	pending []int // grid indices still to run, ascending
}

// prep is the shared prologue of every path — in-process, dispatch
// coordinator, and worker session: normalize and validate the axes,
// parse and vet the overrides, expand the grid, and open the checkpoint
// (loading already-completed rows). Callers close prep.cp when non-nil.
func (k *gridKind[A, C, R]) prep(axes A, opts SweepOptions) (*gridPrep[A, C, R], error) {
	axes = k.normalize(axes)
	if err := k.validate(axes); err != nil {
		return nil, err
	}
	ovs, err := machine.ParseOverrides(k.set(axes))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.name, err)
	}
	// Vet the overrides against a scratch design point up front, so a
	// field typo fails the grid once instead of failing every cell.
	scratch := machine.ConfigSCT()
	if err := machine.ApplyOverrides(&scratch, ovs); err != nil {
		return nil, fmt.Errorf("%s: %w", k.name, err)
	}
	p := &gridPrep[A, C, R]{axes: axes, ovs: ovs, cells: k.cells(axes), done: map[int]R{}}

	if opts.Checkpoint != "" {
		cp, err := openCheckpoint(k, opts.Checkpoint, axes)
		if err != nil {
			return nil, err
		}
		p.cp = cp
		if opts.Faults != nil {
			cp.SetTamperer(opts.Faults.AfterAppend)
		}
		if d := cp.Discarded(); d != "" && opts.Log != nil {
			opts.Log("checkpoint %s: discarded torn trailing line (%d bytes, crash mid-append); its cell will re-run", opts.Checkpoint, len(d))
		}
		p.done = cp.Completed()
	}
	for i := range p.cells {
		if _, ok := p.done[i]; !ok {
			p.pending = append(p.pending, i)
		}
	}
	return p, nil
}

func (p *gridPrep[A, C, R]) close() {
	if p.cp != nil {
		p.cp.Close()
	}
}

// rows assembles the grid-order output: a row already done (checkpoint-
// or cache-served) where there is one, otherwise settled(i)'s. A cell
// that settled to no row marks the run interrupted, and the completed
// rows are returned alongside the context's error — Ctrl-C near the end
// of a long grid reports the finished work instead of discarding it.
func (p *gridPrep[A, C, R]) rows(ctx context.Context, runErr error, settled func(i int) (R, bool)) ([]R, error) {
	rows := make([]R, 0, len(p.cells))
	interrupted := false
	for i := range p.cells {
		row, ok := p.done[i]
		if !ok {
			row, ok = settled(i)
		}
		if !ok {
			interrupted = true
			continue
		}
		rows = append(rows, row)
	}
	if p.cp != nil {
		if err := p.cp.Err(); err != nil {
			return rows, err
		}
	}
	if runErr != nil {
		return rows, runErr
	}
	if interrupted {
		return rows, ctx.Err()
	}
	return rows, nil
}

// settle converts one in-process trial outcome into a row. Cells
// skipped by cancellation report ok=false — they produced no result and
// must not be recorded as failures. Under a retry policy a failed
// cell's row is marked quarantined and carries its attempt count;
// recovered cells (failed attempts followed by a success) stay
// indistinguishable from clean ones — the retry is execution
// machinery, not measurement.
func (k *gridKind[A, C, R]) settle(c C, res any, err error, retries int) (R, bool) {
	switch {
	case err == nil:
		return res.(R), true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		var zero R
		return zero, false
	}
	// Strip the runner's "trial N:" prefix: trial indices depend on how
	// many cells a resume skipped, and the row must not.
	var te *runner.TrialError
	switch {
	case !errors.As(err, &te):
		return k.failed(c, err.Error(), 0, false), true
	case retries > 0:
		return k.failed(c, te.Err.Error(), te.Attempts, true), true
	}
	return k.failed(c, te.Err.Error(), 0, false), true
}

// runGrid runs the grid in process on the runner's worker pool and
// returns one row per cell in grid order.
func (k *gridKind[A, C, R]) runGrid(ctx context.Context, axes A, opts SweepOptions) ([]R, error) {
	p, err := k.prep(axes, opts)
	if err != nil {
		return nil, err
	}
	defer p.close()

	pol := runner.Policy{
		Workers: opts.Workers,
		Timeout: opts.Timeout,
		Retries: opts.Retries,
		Backoff: opts.Backoff,
	}
	trials := make([]runner.Trial, len(p.pending))
	for ti, i := range p.pending {
		c := p.cells[i]
		// Harness faults target grid cell indices, not trial slots: the
		// plan must hit the same cell whether or not a resume skipped
		// earlier cells.
		trials[ti] = opts.Faults.WrapTrial(i, func() (any, error) {
			return k.runCell(p.axes, c, p.ovs)
		})
	}
	var onDone func(int, any, error)
	if p.cp != nil {
		onDone = func(ti int, res any, err error) {
			if row, ok := k.settle(p.cells[p.pending[ti]], res, err, pol.Retries); ok {
				p.cp.Append(row)
			}
		}
	}
	parts, errs := runner.RunAllPolicy(ctx, trials, pol, onDone)

	ti := 0
	return p.rows(ctx, nil, func(i int) (R, bool) {
		row, ok := k.settle(p.cells[i], parts[ti], errs[ti], pol.Retries)
		ti++
		return row, ok
	})
}
