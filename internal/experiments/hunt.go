package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"

	"metaleak/internal/arch"
	"metaleak/internal/hunt"
	"metaleak/internal/machine"
)

// The hunt engine drives the differential leakage fuzzer
// (internal/hunt) through the grid engine it shares with the sweep
// (grid.go): a deterministic grid of (config x program x secret pair)
// cells, each an independent trial, each yielding one verdict row. The
// execution contract is identical — rows are a pure function of the
// axes and the cell index, so any -par worker count, any steal
// schedule, and any resume produce byte-identical output.

// HuntAxes enumerates the differential-fuzzing grid of `metaleak hunt`:
// every config is crossed with Programs generated victim programs and
// Pairs secret pairs per program.
type HuntAxes struct {
	Configs []string // base design points: "sct", "ht", "sgx"
	// Set holds "Field=value" DesignPoint overrides applied to every
	// cell (the sweep's -set mechanism, including Contract=... and
	// FaultSpec=...). Part of the grid's identity and fingerprint.
	Set []string
	// Programs is the number of generated victim programs per config;
	// Pairs the number of differential secret pairs per program.
	Programs int
	Pairs    int
	// Ops is each program's operation count; SecretLen each secret's
	// byte length.
	Ops       int
	SecretLen int
	Seed      uint64
}

// DefaultHuntAxes is the smoke grid: one config, a handful of programs.
func DefaultHuntAxes() HuntAxes {
	return HuntAxes{
		Configs:   []string{"sct"},
		Programs:  4,
		Pairs:     2,
		Ops:       64,
		SecretLen: 8,
	}
}

// normalized applies the defaults a hunt runs with, so fingerprints agree
// with what actually runs.
func (a HuntAxes) normalized() HuntAxes {
	d := DefaultHuntAxes()
	if a.Programs <= 0 {
		a.Programs = d.Programs
	}
	if a.Pairs <= 0 {
		a.Pairs = d.Pairs
	}
	if a.Ops <= 0 {
		a.Ops = d.Ops
	}
	if a.SecretLen <= 0 {
		a.SecretLen = d.SecretLen
	}
	return a
}

// Validate rejects grids that cannot mean anything.
func (a HuntAxes) Validate() error {
	if len(a.Configs) == 0 {
		return fmt.Errorf("hunt: no configs")
	}
	return nil
}

// HuntCell is one point of the expanded grid: one program run twice
// under one secret pair on one machine seed.
type HuntCell struct {
	Index   int // position in deterministic grid order
	Config  string
	Program int
	Pair    int
	// ProgSeed generates the victim program, PairSeed the secret pair,
	// Seed the machine. All three derive from the base seed and the axis
	// indices, never from completion order.
	ProgSeed uint64
	PairSeed uint64
	Seed     uint64
}

// Cells expands the grid in deterministic nested order (configs
// outermost, pairs innermost). Programs are shared across configs by
// index — the same ProgSeed regardless of config — so per-config rows
// for the same program are directly comparable.
func (a HuntAxes) Cells() []HuntCell {
	a = a.normalized()
	var cells []HuntCell
	for ci, cfg := range a.Configs {
		for p := 0; p < a.Programs; p++ {
			for q := 0; q < a.Pairs; q++ {
				cells = append(cells, HuntCell{
					Index:    len(cells),
					Config:   cfg,
					Program:  p,
					Pair:     q,
					ProgSeed: arch.NewRNG(a.Seed, 0x50, uint64(p)).Uint64(),
					PairSeed: arch.NewRNG(a.Seed, 0x5E, uint64(p), uint64(q)).Uint64(),
					Seed:     arch.NewRNG(a.Seed, 0x3A, uint64(ci), uint64(p), uint64(q)).Uint64(),
				})
			}
		}
	}
	return cells
}

// HuntRow is one cell's verdict. Err is non-empty when the cell failed;
// the rest of the grid is unaffected.
type HuntRow struct {
	HuntCell
	hunt.Verdict
	Err         string `json:",omitempty"`
	Attempts    int    `json:",omitempty"`
	Quarantined bool   `json:",omitempty"`
}

// HuntCSVHeader returns the column names of HuntRow.CSVRecord.
func HuntCSVHeader() []string {
	return []string{"config", "program", "pair", "prog_seed", "pair_seed", "seed",
		"diverged", "channel", "first", "first_components", "components", "count",
		"violation", "missing", "obs_a", "obs_b", "contract", "err", "attempts", "quarantined"}
}

// CSVRecord renders the row for `metaleak hunt`'s CSV output.
func (r HuntRow) CSVRecord() []string {
	diverged := "false"
	if r.Diverged {
		diverged = "true"
	}
	quarantined := ""
	if r.Quarantined {
		quarantined = "true"
	}
	attempts := ""
	if r.Attempts > 0 {
		attempts = fmt.Sprintf("%d", r.Attempts)
	}
	return []string{
		r.Config,
		fmt.Sprintf("%d", r.Program),
		fmt.Sprintf("%d", r.Pair),
		fmt.Sprintf("%d", r.ProgSeed),
		fmt.Sprintf("%d", r.PairSeed),
		fmt.Sprintf("%d", r.Seed),
		diverged,
		r.Channel,
		fmt.Sprintf("%d", r.First),
		r.FirstComponents,
		r.Components,
		fmt.Sprintf("%d", r.Count),
		r.Violation,
		r.Missing,
		fmt.Sprintf("%d", r.ObsA),
		fmt.Sprintf("%d", r.ObsB),
		r.Contract,
		r.Err,
		attempts,
		quarantined,
	}
}

// runHuntCell runs one differential pair: regenerate the program and
// secrets from the cell's seeds, build the design point (overrides
// before the machine seed, which the cell owns), and judge the pair
// under the design's contract.
func runHuntCell(a HuntAxes, c HuntCell, ovs []machine.FieldOverride) (HuntRow, error) {
	row := HuntRow{HuntCell: c}
	base, _, err := sweepConfig(c.Config)
	if err != nil {
		return row, err
	}
	if err := machine.ApplyOverrides(&base, ovs); err != nil {
		return row, err
	}
	base.Seed = c.Seed
	prog := hunt.Generate(c.ProgSeed, a.Ops)
	sa, sb := hunt.Secrets(c.PairSeed, a.SecretLen)
	v, err := hunt.RunPair(base, prog, sa, sb)
	if err != nil {
		return row, err
	}
	row.Verdict = v
	return row, nil
}

// HuntSummary aggregates a hunt's rows: divergence and violation
// totals, and the channel census the acceptance criteria key on.
type HuntSummary struct {
	Cells      int
	Diverged   int
	Violations int
	Missing    int
	Errs       int
	// Channels counts classified divergences per channel name, rendered
	// in hunt.Channels() priority order by the CLI.
	Channels map[string]int
}

// Summarize folds the rows.
func Summarize(rows []HuntRow) HuntSummary {
	s := HuntSummary{Cells: len(rows), Channels: map[string]int{}}
	for _, r := range rows {
		if r.Err != "" {
			s.Errs++
			continue
		}
		if r.Diverged {
			s.Diverged++
			s.Channels[r.Channel]++
		}
		if r.Violation != "" {
			s.Violations++
		}
		if r.Missing != "" {
			s.Missing++
		}
	}
	return s
}

// huntKind is the hunt's grid-engine definition (grid.go).
var huntKind = &gridKind[HuntAxes, HuntCell, HuntRow]{
	name:        "hunt",
	format:      "metaleak-hunt-checkpoint/v1",
	axesNames:   "configs, programs, pairs, ops, secret length, seed, or -set overrides",
	normalize:   HuntAxes.normalized,
	validate:    HuntAxes.Validate,
	set:         func(a HuntAxes) []string { return a.Set },
	cells:       HuntAxes.Cells,
	fingerprint: HuntAxes.Fingerprint,
	runCell:     runHuntCell,
	index:       func(r HuntRow) int { return r.Index },
	cellOf:      func(r HuntRow) HuntCell { return r.HuntCell },
	errOf:       func(r HuntRow) string { return r.Err },
	failed: func(c HuntCell, err string, attempts int, quarantined bool) HuntRow {
		return HuntRow{HuntCell: c, Err: err, Attempts: attempts, Quarantined: quarantined}
	},
	reindex:  func(r HuntRow, i int) HuntRow { r.Index = i; return r },
	cacheKey: huntCellKey,
}

// Fingerprint identifies the hunt grid for checkpoint and dispatch
// compatibility: a hash of the expanded cell list (with every derived
// seed, covering the base seed transitively), the program/secret
// shapes, and the design-point overrides.
func (a HuntAxes) Fingerprint() string {
	a = a.normalized()
	h := sha256.New()
	fmt.Fprintf(h, "hunt/v1 seed=%d ops=%d secretlen=%d set=%q\n", a.Seed, a.Ops, a.SecretLen, a.Set)
	for _, c := range a.Cells() {
		fmt.Fprintf(h, "%d %s %d %d %d %d %d\n",
			c.Index, c.Config, c.Program, c.Pair, c.ProgSeed, c.PairSeed, c.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// huntCellKey is the content address of one hunt cell's row in the
// result cache: everything runHuntCell reads — the cell's config,
// labels and derived seeds, the program and secret shapes, and the
// overrides — but not the grid index.
func huntCellKey(a HuntAxes, c HuntCell) string {
	h := sha256.New()
	fmt.Fprintf(h, "huntcell/v1 %s %d %d %d %d %d ops=%d secretlen=%d set=%q\n",
		c.Config, c.Program, c.Pair, c.ProgSeed, c.PairSeed, c.Seed, a.Ops, a.SecretLen, a.Set)
	return hex.EncodeToString(h.Sum(nil))
}

// HuntOpts runs the grid in process under the full execution policy —
// the options and their semantics are SweepOpts'.
func HuntOpts(ctx context.Context, axes HuntAxes, opts SweepOptions) ([]HuntRow, error) {
	return huntKind.runGrid(ctx, axes, opts)
}

// HuntDispatch runs the grid distributed over the dispatch workers
// attached to ln, byte-identical to HuntOpts for any worker fleet.
func HuntDispatch(ctx context.Context, axes HuntAxes, opts SweepOptions, dopts DispatchOptions, ln net.Listener) ([]HuntRow, error) {
	return huntKind.dispatch(ctx, axes, opts, dopts, ln)
}
