package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"metaleak/internal/arch"
)

func tinyAxes() SweepAxes {
	return SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{6, 7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0},
		Seeds:     2,
		Seed:      9,
		Bits:      16,
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	axes := tinyAxes()
	seq, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep differs across worker counts:\nseq %+v\npar %+v", seq, par)
	}
	if len(seq) != 4 {
		t.Fatalf("2 minors x 2 reps should be 4 cells, got %d", len(seq))
	}
	for i, r := range seq {
		if r.Index != i {
			t.Fatalf("row %d carries index %d", i, r.Index)
		}
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
	}
}

func TestSweepCellFailureIsolated(t *testing.T) {
	axes := tinyAxes()
	axes.Configs = []string{"sct", "bogus"}
	axes.MinorBits = []uint{7}
	axes.Seeds = 1
	rows, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Err != "" {
		t.Fatalf("healthy cell failed: %s", rows[0].Err)
	}
	if !strings.Contains(rows[1].Err, "unknown config") {
		t.Fatalf("broken cell error %q", rows[1].Err)
	}

	points := axes.Aggregate(rows)
	if len(points) != 2 {
		t.Fatalf("got %d aggregate points", len(points))
	}
	if points[0].Covert.N != 1 || points[0].Errs != 0 {
		t.Fatalf("healthy point %+v", points[0])
	}
	if points[1].Covert.N != 0 || points[1].Errs != 1 {
		t.Fatalf("broken point %+v", points[1])
	}
}

// TestSweepRejectsNormalizedAxisValues pins the silent-axis fix: minor
// width 0 (remapped to 7 by ctr.NewSC and buildTree) and non-positive
// metadata sizes (remapped to 256 KiB) must be rejected, not run as
// phantom design points.
func TestSweepRejectsNormalizedAxisValues(t *testing.T) {
	for _, tc := range []func(*SweepAxes){
		func(a *SweepAxes) { a.MinorBits = []uint{0} },
		func(a *SweepAxes) { a.MinorBits = []uint{7, 0} },
		func(a *SweepAxes) { a.MinorBits = []uint{17} },
		func(a *SweepAxes) { a.MetaKB = []int{0} },
		func(a *SweepAxes) { a.MetaKB = []int{-64} },
	} {
		axes := tinyAxes()
		tc(&axes)
		if err := axes.Validate(); err == nil {
			t.Fatalf("axes %+v accepted", axes)
		}
		if _, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 1}); err == nil {
			t.Fatalf("Sweep accepted axes %+v", axes)
		}
	}
	if err := tinyAxes().Validate(); err != nil {
		t.Fatalf("valid axes rejected: %v", err)
	}
}

// TestSweepSGXMinorCollapse pins the phantom-variation fix: sgx ignores
// MinorBits (MoC counters, SIT's hardwired 56-bit counters), so the
// minor axis collapses to one marked cell instead of emitting rows
// labeled as different widths that ran identical machines.
func TestSweepSGXMinorCollapse(t *testing.T) {
	axes := tinyAxes()
	axes.Configs = []string{"sct", "sgx"}
	axes.MinorBits = []uint{6, 7}
	axes.Seeds = 1
	cells := axes.Cells()
	var sct, sgx int
	for _, c := range cells {
		switch c.Config {
		case "sct":
			sct++
			if c.MinorNA {
				t.Fatalf("sct cell marked MinorNA: %+v", c)
			}
		case "sgx":
			sgx++
			if !c.MinorNA || c.MinorLabel() != "na" {
				t.Fatalf("sgx cell not collapsed: %+v", c)
			}
		}
	}
	if sct != 2 || sgx != 1 {
		t.Fatalf("got %d sct / %d sgx cells, want 2/1", sct, sgx)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d after collapse", i, c.Index)
		}
	}

	rows, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	points := axes.Aggregate(rows)
	if len(points) != 3 {
		t.Fatalf("got %d aggregate points, want 3 (sct×2 minors + sgx×na): %+v", len(points), points)
	}
	last := points[len(points)-1]
	if last.Config != "sgx" || last.MinorLabel() != "na" || last.Covert.N != 1 {
		t.Fatalf("sgx aggregate %+v", last)
	}
	rec := rows[len(rows)-1].CSVRecord()
	if rec[0] != "sgx" || rec[1] != "na" {
		t.Fatalf("sgx CSV record %v", rec)
	}
}

// TestSweepOverrides: Set overrides reach every cell's design point and
// are vetted up front.
func TestSweepOverrides(t *testing.T) {
	axes := tinyAxes()
	axes.MinorBits = []uint{7}
	axes.Seeds = 1
	plain, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	axes.Set = []string{"QueueDelay=80"}
	slow, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].CyclesPerBit == slow[0].CyclesPerBit {
		t.Fatal("QueueDelay override did not reach the cell's machine")
	}

	axes.Set = []string{"NoSuchField=1"}
	if _, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 1}); err == nil {
		t.Fatal("unknown override field accepted")
	}
	axes.Set = []string{"broken"}
	if _, err := SweepOpts(context.Background(), axes, SweepOptions{Workers: 1}); err == nil {
		t.Fatal("malformed override accepted")
	}
}

// TestSweepLongRecords checks the long-format rendering: three metric
// records per healthy cell, one err record for a failed one.
func TestSweepLongRecords(t *testing.T) {
	row := SweepRow{
		SweepCell:       SweepCell{Config: "sct", MinorBits: 7, MetaKB: 256, Rep: 1, Seed: 5},
		CovertAccuracy:  0.75,
		CyclesPerBit:    1234.5,
		MonitorAccuracy: 1,
	}
	recs := row.LongRecords()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %v", len(recs), recs)
	}
	if len(recs[0]) != len(LongHeader()) {
		t.Fatalf("record width %d != header width %d", len(recs[0]), len(LongHeader()))
	}
	if recs[0][6] != "covert_accuracy" || recs[0][7] != "0.7500" {
		t.Fatalf("covert record %v", recs[0])
	}
	if recs[1][6] != "cycles_per_bit" || recs[1][7] != "1234.5" {
		t.Fatalf("cycles record %v", recs[1])
	}

	row.Err = "boom"
	recs = row.LongRecords()
	if len(recs) != 1 || recs[0][6] != "err" || recs[0][7] != "boom" {
		t.Fatalf("err records %v", recs)
	}
}

func TestSweepSeedsPerturbCells(t *testing.T) {
	axes := tinyAxes()
	cells := axes.Cells()
	seen := map[uint64]bool{}
	for _, c := range cells {
		if seen[c.Seed] {
			t.Fatalf("derived seed %d repeats across cells", c.Seed)
		}
		seen[c.Seed] = true
	}
	axes2 := axes
	axes2.Seed = axes.Seed + 1
	if axes2.Cells()[0].Seed == cells[0].Seed {
		t.Fatal("base seed does not perturb cell seeds")
	}
}
