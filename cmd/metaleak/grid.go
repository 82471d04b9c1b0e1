package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"metaleak/internal/experiments"
	"metaleak/internal/faults"
	"metaleak/internal/runner"
)

// gridFlags are the execution-policy flags sweep and hunt share — pool
// width, checkpoint, worker fleet, faults, retries, deadline. None of
// them changes what a cell computes.
type gridFlags struct {
	name         string // the subcommand: error and message prefix
	par          *int
	checkpoint   *string
	workers      *int
	listen       *string
	leaseTimeout *time.Duration
	token        *string
	faultSpec    *string
	retries      *int
	trialTimeout *time.Duration
}

// addGridFlags declares the execution-policy flags on fs; parHelp is
// the subcommand's -par help text.
func addGridFlags(fs *flag.FlagSet, parHelp string) *gridFlags {
	return &gridFlags{
		name:         fs.Name(),
		par:          fs.Int("par", 0, parHelp),
		checkpoint:   fs.String("checkpoint", "", "persist completed cells to FILE and resume from it on rerun"),
		workers:      fs.Int("workers", 0, "distributed: spawn N local `metaleak worker` processes and deal cells to them over a private socket"),
		listen:       fs.String("listen", "", "distributed: accept remote `metaleak worker -connect` processes on ADDR (host:port, unix:PATH, or /path)"),
		leaseTimeout: fs.Duration("lease-timeout", 10*time.Second, "distributed: silence window after which a worker's leased cells revoke and re-deal"),
		token:        fs.String("token", os.Getenv("METALEAK_TOKEN"), "distributed: shared auth token workers must present (default $METALEAK_TOKEN; empty = no auth)"),
		faultSpec:    fs.String("faults", "", "fault plan (DESIGN.md §8): machine: entries corrupt metadata in every cell's machine, harness: entries fail trials and tear checkpoints"),
		retries:      fs.Int("retries", 0, "extra attempts for a failed cell before quarantine"),
		trialTimeout: fs.Duration("trial-timeout", 0, "per-attempt cell deadline (0 = none)"),
	}
}

func (g *gridFlags) distributed() bool { return *g.workers > 0 || *g.listen != "" }

// options cross-checks the flags (explicit holds the ones the user
// passed) and builds the execution options. Machine-level -faults
// entries are design-point state: they join the grid's overrides in
// *set as a FaultSpec, and with them its identity and fingerprint.
func (g *gridFlags) options(explicit map[string]bool, set *[]string) (experiments.SweepOptions, experiments.DispatchOptions, error) {
	var opts experiments.SweepOptions
	var dopts experiments.DispatchOptions
	distributed := g.distributed()
	if distributed && explicit["par"] {
		return opts, dopts, fmt.Errorf("%s: -par is the single-process pool width; with -workers/-listen concurrency is the attached worker count, drop -par", g.name)
	}
	if !distributed && explicit["lease-timeout"] {
		return opts, dopts, fmt.Errorf("%s: -lease-timeout only applies to distributed runs; add -workers N or -listen ADDR", g.name)
	}
	if !distributed && explicit["token"] {
		return opts, dopts, fmt.Errorf("%s: -token authenticates dispatch workers; add -workers N or -listen ADDR", g.name)
	}
	var harness *faults.Harness
	var harnessSpec string
	if *g.faultSpec != "" {
		plan, err := faults.Parse(*g.faultSpec)
		if err != nil {
			return opts, dopts, fmt.Errorf("%s: %w", g.name, err)
		}
		if plan.HasMachine() {
			for _, s := range *set {
				if strings.HasPrefix(s, "FaultSpec=") {
					return opts, dopts, fmt.Errorf("%s: -faults machine entries conflict with -set FaultSpec; pass the plan once", g.name)
				}
			}
			*set = append(*set, "FaultSpec="+plan.MachineSpec())
		}
		if plan.HasDisconnect() && !distributed {
			return opts, dopts, fmt.Errorf("%s: harness:disconnect faults drop dispatch workers; they need a distributed run (-workers N or -listen ADDR)", g.name)
		}
		harness = plan.NewHarness()
		harnessSpec = plan.HarnessSpec()
	}
	opts = experiments.SweepOptions{
		Workers:    *g.par,
		Checkpoint: *g.checkpoint,
		Timeout:    *g.trialTimeout,
		Retries:    *g.retries,
		Faults:     harness,
		Log: func(format string, logArgs ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", logArgs...)
		},
	}
	if *g.retries > 0 {
		opts.Backoff = runner.ExpBackoff(50 * time.Millisecond)
	}
	dopts = experiments.DispatchOptions{LeaseTimeout: *g.leaseTimeout, HarnessSpec: harnessSpec, Token: *g.token}
	return opts, dopts, nil
}

// runGrid runs a grid of cells cells in process (local) or over a
// runWithFleet worker fleet (remote), then hands the rows to emit.
// Interrupted mid-grid, it emits the completed rows and says how to
// resume before surfacing the cancellation.
func runGrid[A, R any](ctx context.Context, g *gridFlags, axes A, cells int,
	opts experiments.SweepOptions, dopts experiments.DispatchOptions,
	local func(context.Context, A, experiments.SweepOptions) ([]R, error),
	remote func(context.Context, A, experiments.SweepOptions, experiments.DispatchOptions, net.Listener) ([]R, error),
	emit func([]R) error) error {
	var rows []R
	var err error
	if g.distributed() {
		err = runWithFleet(ctx, *g.workers, *g.listen, dopts.Token, func(ctx context.Context, ln net.Listener) error {
			var err error
			rows, err = remote(ctx, axes, opts, dopts, ln)
			return err
		})
	} else {
		rows, err = local(ctx, axes, opts)
	}
	if err == nil {
		return emit(rows)
	}
	if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && len(rows) > 0 {
		if emitErr := emit(rows); emitErr != nil {
			return emitErr
		}
		if *g.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "# %s interrupted: %d/%d cells done, checkpointed to %s; rerun the same command to resume\n",
				g.name, len(rows), cells, *g.checkpoint)
		} else {
			fmt.Fprintf(os.Stderr, "# %s interrupted: %d/%d cells done (no -checkpoint: a rerun starts over)\n",
				g.name, len(rows), cells)
		}
	}
	return err
}
