package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"time"

	"metaleak/internal/arch"
	"metaleak/internal/experiments"
)

// A workload is a closed-loop batch job with one worker: each unit (an
// experiment, a sweep cell, a hunt row) starts only after the previous
// one has finished. prepare is the input generation that setup_s
// covers; the job's pass is the fixed work a run repeats.
type workload struct {
	name    string
	prepare func(seed uint64) job
}

// A job is one workload's generated inputs. pass runs every unit once
// through the public entry point users call and returns each unit's
// output in canonical form (the text digested against the references)
// and its error, if any. span, when non-nil, receives the host time of
// each call the benchmark makes into the program.
type job struct {
	shape string // the inputs, without the seed, as results record them
	units []string
	pass  func(ctx context.Context, span func(name string, d time.Duration)) ([]string, []error)
}

var workloads = []workload{
	{name: "paper", prepare: preparePaper},
	{name: "sweep", prepare: prepareSweep},
	{name: "hunt", prepare: prepareHunt},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperOptions is the scale of the repository's BenchmarkRunAllSequential
// (bench_test.go's benchOpts), so the paper workload times the same
// evaluation the Go benchmark does.
func paperOptions(seed uint64) experiments.Options {
	o := experiments.Default()
	o.Samples = 400
	o.Bits = 60
	o.Symbols = 12
	o.ImageSize = 24
	o.ExpBits = 64
	o.PrimeBits = 64
	o.Trials = 10
	o.Seed = seed
	return o
}

func preparePaper(seed uint64) job {
	o := paperOptions(seed)
	ids := experiments.IDs()
	return job{
		shape: fmt.Sprintf("workers=1 %v %+v", ids, paperOptions(0)),
		units: ids,
		pass: func(ctx context.Context, span func(string, time.Duration)) ([]string, []error) {
			outs := make([]string, len(ids))
			errs := make([]error, len(ids))
			for i, id := range ids {
				//metalint:allow wallclock the benchmark measures host time
				start := time.Now()
				res, err := experiments.Run(ctx, id, o, 1)
				if span != nil {
					//metalint:allow wallclock the benchmark measures host time
					span("exp."+id, time.Since(start))
				}
				if err != nil {
					errs[i] = err
					continue
				}
				// The CLI's "(id in Xs)" host-time footer is printed
				// after String(), so String() is the deterministic part.
				outs[i] = res.String()
			}
			return outs, errs
		},
	}
}

func prepareSweep(seed uint64) job {
	axes := experiments.SweepAxes{
		Configs:   []string{"sct", "ht", "sgx"},
		MinorBits: []uint{6, 7},
		MetaKB:    []int{64, 256},
		Noise:     []arch.Cycles{0},
		Seeds:     1,
		Bits:      64,
	}
	shape := fmt.Sprintf("workers=1 %+v", axes)
	axes.Seed = seed
	cells := axes.Cells()
	units := make([]string, len(cells))
	for i, c := range cells {
		units[i] = fmt.Sprintf("%s/m%s/k%d/r%d", c.Config, c.MinorLabel(), c.MetaKB, c.Rep)
	}
	return job{
		shape: shape,
		units: units,
		pass: func(ctx context.Context, _ func(string, time.Duration)) ([]string, []error) {
			rows, err := experiments.SweepOpts(ctx, axes, experiments.SweepOptions{Workers: 1})
			return gridOutputs(len(units), err, len(rows), func(i int) ([]string, string, bool) {
				r := rows[i]
				return r.CSVRecord(), r.Err, r.Quarantined
			})
		},
	}
}

func prepareHunt(seed uint64) job {
	axes := experiments.HuntAxes{
		Configs:   []string{"sct", "ht", "sgx"},
		Programs:  32,
		Pairs:     2,
		Ops:       64,
		SecretLen: 8,
	}
	shape := fmt.Sprintf("workers=1 %+v", axes)
	axes.Seed = seed
	cells := axes.Cells()
	units := make([]string, len(cells))
	for i, c := range cells {
		units[i] = fmt.Sprintf("%s/p%d/q%d", c.Config, c.Program, c.Pair)
	}
	return job{
		shape: shape,
		units: units,
		pass: func(ctx context.Context, _ func(string, time.Duration)) ([]string, []error) {
			rows, err := experiments.HuntOpts(ctx, axes, experiments.SweepOptions{Workers: 1})
			return gridOutputs(len(units), err, len(rows), func(i int) ([]string, string, bool) {
				r := rows[i]
				return r.CSVRecord(), r.Err, r.Quarantined
			})
		},
	}
}

// gridOutputs turns a grid engine's rows into per-unit outputs: each
// row's CSV record, and an error for a row that failed or was
// quarantined, or that the engine never returned.
func gridOutputs(n int, err error, got int, row func(i int) ([]string, string, bool)) ([]string, []error) {
	outs := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		if i >= got {
			errs[i] = fmt.Errorf("no row returned: %v", err)
			continue
		}
		rec, rowErr, quarantined := row(i)
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		_ = w.Write(rec) // a bytes.Buffer write cannot fail
		w.Flush()
		outs[i] = buf.String()
		switch {
		case rowErr != "":
			errs[i] = fmt.Errorf("row error: %s", rowErr)
		case quarantined:
			errs[i] = fmt.Errorf("row quarantined")
		}
	}
	return outs, errs
}
