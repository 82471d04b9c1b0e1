package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"metaleak/internal/dispatch"
	"metaleak/internal/faults"
	"metaleak/internal/runner"
)

// This file binds the generic coordinator/worker protocol of
// internal/dispatch to the grid engine. The contract is the one the
// in-process runner honors: distribution is pure scheduling. A cell's
// row is a function of the axes and the cell index — which worker
// process ran it, in what steal order, and after how many revoked
// leases never appears in the output — so a dispatched grid's rows are
// byte-identical to the in-process run's for any worker count, steal
// schedule, or mid-run worker death.

// gridJob is the opaque job spec a coordinator ships to its workers:
// everything a worker needs to expand the identical grid and run any
// cell of it.
type gridJob[A any] struct {
	// Kind names the engine for NewJobSession routing; empty is accepted
	// as a sweep, for specs written before hunt jobs existed.
	Kind string `json:",omitempty"`
	// Axes is the normalized grid (including -set overrides, and hence
	// any machine-level fault spec riding them).
	Axes A
	// Fingerprint is the coordinator's fingerprint of Axes; a worker
	// whose own expansion fingerprints differently is running skewed
	// code and refuses the job rather than contributing wrong rows.
	Fingerprint string
	// Timeout is the per-attempt deadline each worker applies locally;
	// 0 disables stall detection.
	Timeout time.Duration
	// HarnessSpec carries the plan's harness-level fault entries
	// (re-rendered by faults.Plan.HarnessSpec) so worker-side faults —
	// disconnect above all — fire in the process holding the lease.
	HarnessSpec string
}

// NewJobSession is the Init hook `metaleak worker` uses: it routes a
// job payload to the engine its Kind names — "hunt" to the differential
// fuzzer, "" or "sweep" to the sweep — so one worker binary serves any
// coordinator, and builds the session's fault harness from the job's
// harness spec (per-process attempt counting).
func NewJobSession(spec json.RawMessage) (dispatch.Session, error) {
	var job struct{ Kind string }
	if err := json.Unmarshal(spec, &job); err != nil {
		return dispatch.Session{}, fmt.Errorf("job: %w", err)
	}
	switch job.Kind {
	case "", "sweep":
		return sweepKind.session(spec, nil)
	case "hunt":
		return huntKind.session(spec, nil)
	}
	return dispatch.Session{}, fmt.Errorf("job: unknown kind %q (sweep or hunt)", job.Kind)
}

// session initializes a worker-side dispatch session from a job
// payload. h, when non-nil, replaces the harness the job's spec would
// build — in-process workers share one harness so planned faults count
// attempts globally and fire deterministically.
func (k *gridKind[A, C, R]) session(spec json.RawMessage, h *faults.Harness) (dispatch.Session, error) {
	var job gridJob[A]
	if err := json.Unmarshal(spec, &job); err != nil {
		return dispatch.Session{}, fmt.Errorf("%s job: %w", k.name, err)
	}
	if h == nil && job.HarnessSpec != "" {
		plan, err := faults.Parse(job.HarnessSpec)
		if err != nil {
			return dispatch.Session{}, fmt.Errorf("%s job: %w", k.name, err)
		}
		h = plan.NewHarness()
	}
	p, err := k.prep(job.Axes, SweepOptions{})
	if err != nil {
		return dispatch.Session{}, err
	}
	if fp := k.fingerprint(p.axes); fp != job.Fingerprint {
		return dispatch.Session{}, fmt.Errorf(
			"%s job: grid fingerprint mismatch (coordinator %.12s…, worker %.12s…): worker binary expands a different grid — version skew",
			k.name, job.Fingerprint, fp)
	}
	run := func(ctx context.Context, cell int) (json.RawMessage, error) {
		if cell < 0 || cell >= len(p.cells) {
			return nil, fmt.Errorf("leased cell %d outside grid of %d", cell, len(p.cells))
		}
		c := p.cells[cell]
		trial := h.WrapTrial(cell, func() (any, error) {
			return k.runCell(p.axes, c, p.ovs)
		})
		// One lease is one attempt: run it under the same single-attempt
		// deadline machinery the in-process pool uses, so stalls and
		// panics settle to the identical error strings. Retries are the
		// coordinator's job (lease budget), not the worker's.
		res, errs := runner.RunAllPolicy(ctx, []runner.Trial{trial},
			runner.Policy{Workers: 1, Timeout: job.Timeout}, nil)
		if errs[0] != nil {
			return nil, attemptCause(errs[0])
		}
		return json.Marshal(res[0].(R))
	}
	return dispatch.Session{Run: run, Drop: func(cell int) bool {
		return cell >= 0 && cell < len(p.cells) && h.Disconnect(cell)
	}}, nil
}

// attemptCause strips the runner's TrialError envelope so the attempt
// error the coordinator records is the same string settle would put in
// an in-process row ("trial N:" prefixes depend on pool slot numbering
// and must not leak into results).
func attemptCause(err error) error {
	var te *runner.TrialError
	if errors.As(err, &te) && te.Err != nil {
		return te.Err
	}
	return err
}

// DispatchOptions configures the coordinator side of a distributed
// grid, on top of the usual SweepOptions.
type DispatchOptions struct {
	// LeaseTimeout is how long a worker may stay silent before its
	// leases revoke; <= 0 selects the dispatch default (10s).
	LeaseTimeout time.Duration
	// HarnessSpec is shipped to workers inside the job (see
	// gridJob.HarnessSpec).
	HarnessSpec string
	// Token is the shared-secret auth for the worker listener; workers
	// not presenting it are refused (dispatch.Options.Token).
	Token string
	// Revive is the per-cell budget of lease revocations absorbed
	// without consuming attempts — the supervised-fleet mode
	// (dispatch.Options.Revive). 0 keeps the historic accounting.
	Revive int
	// RetryBackoff paces re-leases of failed or revoked cells
	// (dispatch.Options.RetryBackoff). Nil re-leases immediately.
	RetryBackoff func(attempt int) time.Duration
	// Cache, when non-nil, is the content-addressed result cache:
	// pending cells already in it are served without computing (logged
	// per cell through opts.Log), and every freshly settled clean row is
	// added. The key excludes the grid index, so overlapping grids share
	// cells.
	Cache *ResultCache
	// OnRow, when non-nil, observes every row of the final output as it
	// becomes known: rows settled before dispatch (checkpoint- or
	// cache-served, cached=true) in grid order up front, then each
	// live-computed row (cached=false) in completion order. The row is
	// the engine's row type: a SweepRow or a HuntRow.
	OnRow func(row any, cached bool)
}

// dispatch runs the grid distributed: it accepts workers on ln, deals
// pending cells via work-stealing leases, re-leases cells from dead
// workers (each revocation consuming one attempt of the cell's
// 1+Retries budget, exactly like a failed in-process attempt), streams
// settled rows into the checkpoint and the cache, and returns rows in
// grid order — byte-identical to runGrid with the same axes and
// policy. Of opts, Workers and Backoff are ignored (concurrency is
// however many workers attach; there is no inter-lease pause) and
// Faults only drives the checkpoint tamper hook — worker-side faults
// travel via dopts.HarnessSpec.
func (k *gridKind[A, C, R]) dispatch(ctx context.Context, axes A, opts SweepOptions, dopts DispatchOptions, ln net.Listener) ([]R, error) {
	p, err := k.prep(axes, opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer p.close()

	// Content-addressed cache: serve pending cells some earlier grid
	// (any grid, any client) already computed. Served rows join the
	// checkpoint so a later resume of this grid no longer needs the
	// cache.
	if dopts.Cache != nil {
		kept := p.pending[:0]
		for _, i := range p.pending {
			key := k.cacheKey(p.axes, p.cells[i])
			row, ok := k.cached(dopts.Cache, key, i)
			if !ok {
				kept = append(kept, i)
				continue
			}
			p.done[i] = row
			if opts.Log != nil {
				opts.Log("%s: cell %d served from cache (%.12s…)", k.name, i, key)
			}
			if p.cp != nil {
				p.cp.Append(row)
			}
		}
		p.pending = kept
	}
	if dopts.OnRow != nil {
		for i := range p.cells {
			if row, ok := p.done[i]; ok {
				dopts.OnRow(row, true)
			}
		}
	}

	// Fully satisfied without computing: skip the coordinator entirely —
	// a resubmitted spec completes even with zero workers attached.
	if len(p.pending) == 0 {
		ln.Close()
		return p.rows(ctx, nil, nil)
	}

	spec, err := json.Marshal(gridJob[A]{
		Kind:        k.name,
		Axes:        p.axes,
		Fingerprint: k.fingerprint(p.axes),
		Timeout:     opts.Timeout,
		HarnessSpec: dopts.HarnessSpec,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}

	retries := opts.Retries
	co := dispatch.NewCoordinator(spec, p.pending, dispatch.Options{
		LeaseTimeout: dopts.LeaseTimeout,
		MaxLeases:    1 + retries,
		Token:        dopts.Token,
		Revive:       dopts.Revive,
		RetryBackoff: dopts.RetryBackoff,
		Log:          opts.Log,
		OnSettled: func(cell int, s dispatch.Settled) {
			if p.cp == nil && dopts.Cache == nil && dopts.OnRow == nil {
				return
			}
			row, ok := k.settleDispatched(p.cells[cell], s, retries)
			if !ok {
				return
			}
			if p.cp != nil {
				p.cp.Append(row)
			}
			if dopts.Cache != nil {
				k.cache(dopts.Cache, k.cacheKey(p.axes, p.cells[cell]), row)
			}
			if dopts.OnRow != nil {
				dopts.OnRow(row, false)
			}
		},
	})
	settled, runErr := co.Run(ctx, ln)
	return p.rows(ctx, runErr, func(i int) (R, bool) {
		s, ok := settled[i]
		if !ok {
			var zero R
			return zero, false
		}
		return k.settleDispatched(p.cells[i], s, retries)
	})
}

// cached returns the row the cache holds under key, re-stamped with
// grid index i; an entry that does not decode is a miss.
func (k *gridKind[A, C, R]) cached(rc *ResultCache, key string, i int) (R, bool) {
	var row R
	raw, ok := rc.Get(key)
	if !ok || json.Unmarshal(raw, &row) != nil {
		return row, false
	}
	return k.reindex(row, i), true
}

// cache adds row to the result cache under key with its grid index
// zeroed (the key is grid-independent). Failed rows are never cached: a
// failure may be transient, and a later grid deserves its retry.
func (k *gridKind[A, C, R]) cache(rc *ResultCache, key string, row R) {
	if k.errOf(row) == "" {
		rc.Put(key, k.reindex(row, 0))
	}
}

// settleDispatched converts one settled dispatch outcome into a row,
// mirroring settle byte for byte: a failed cell's Err joins every
// attempt's error with newlines (the same rendering errors.Join gives
// the in-process pool), and Attempts/Quarantined only appear under a
// retry policy.
func (k *gridKind[A, C, R]) settleDispatched(c C, s dispatch.Settled, retries int) (R, bool) {
	var row R
	switch {
	case s.Err == "":
		err := json.Unmarshal(s.Payload, &row)
		if err == nil {
			return row, true
		}
		s.Err = fmt.Sprintf("undecodable result payload: %v", err)
	case strings.Contains(s.Err, "context canceled") && len(s.Errs) == 1:
		// A worker caught the cancellation before the coordinator did:
		// not a measurement, not a failure — the cell simply didn't run.
		return row, false
	}
	if retries > 0 {
		return k.failed(c, s.Err, s.Attempts, true), true
	}
	return k.failed(c, s.Err, 0, false), true
}

// localWorker is an in-process dispatch worker for this kind, sharing
// harness h (see session).
func (k *gridKind[A, C, R]) localWorker(id, token string, h *faults.Harness) *dispatch.Worker {
	return &dispatch.Worker{
		ID:        id,
		Heartbeat: 50 * time.Millisecond,
		Token:     token,
		Init: func(spec json.RawMessage) (dispatch.Session, error) {
			return k.session(spec, h)
		},
	}
}

// runLocalDispatch is the in-process distributed path the chaos driver
// and tests use: dispatch with n worker goroutines attached over
// loopback TCP, all sharing one fault harness so planned worker faults
// (disconnect above all) count attempts globally and fire
// deterministically. Subprocess workers (`metaleak worker`) go through
// NewJobSession instead.
func (k *gridKind[A, C, R]) runLocalDispatch(ctx context.Context, axes A, opts SweepOptions, dopts DispatchOptions, n int, h *faults.Harness) ([]R, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := k.localWorker(fmt.Sprintf("local-%d", i), dopts.Token, h)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dispatch.Dial(addr)
			if err != nil {
				return
			}
			w.Run(ctx, conn)
		}()
	}
	rows, err := k.dispatch(ctx, axes, opts, dopts, ln)
	wg.Wait()
	return rows, err
}

// runSupervisedDispatch is runLocalDispatch with self-healing: the n
// in-process workers run under a dispatch.Supervisor, so a worker that
// dies mid-grid (a flap plan's drop, a panic) is respawned with
// deterministic backoff and redials the coordinator with DialRetry.
// Paired with dopts.Revive on the coordinator it is the in-process
// model of `metaleak serve`'s fleet: a flapping run converges to the
// clean rows with zero quarantined cells.
func (k *gridKind[A, C, R]) runSupervisedDispatch(ctx context.Context, axes A, opts SweepOptions, dopts DispatchOptions, n int, h *faults.Harness) ([]R, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	sup := &dispatch.Supervisor{
		Workers: n,
		Backoff: runner.ExpBackoff(time.Millisecond),
		Log:     opts.Log,
		Start: func(ctx context.Context, slot, attempt int) error {
			w := k.localWorker(fmt.Sprintf("sup-%d-%d", slot, attempt), dopts.Token, h)
			conn, err := dispatch.DialRetry(ctx, addr, 5, runner.ExpBackoff(5*time.Millisecond))
			if err != nil {
				return err
			}
			return w.Run(ctx, conn)
		},
	}
	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(fctx) }()
	rows, err := k.dispatch(ctx, axes, opts, dopts, ln)
	fcancel() // release slots mid-respawn; drained slots already exited
	if serr := <-supDone; serr != nil && err == nil {
		err = serr
	}
	return rows, err
}
