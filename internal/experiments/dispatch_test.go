package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/dispatch"
	"metaleak/internal/faults"
)

// renderAll produces every operator-facing rendering of a row set —
// wide CSV, long CSV, and the canonical JSON the checkpoint persists —
// concatenated into one byte string. Two runs are "byte-identical"
// exactly when these bytes match.
func renderAll(t *testing.T, rows []SweepRow) string {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(CSVHeader())
	for _, r := range rows {
		w.Write(r.CSVRecord())
	}
	w.Flush()
	buf.WriteString("--long--\n")
	w.Write(LongHeader())
	for _, r := range rows {
		for _, rec := range r.LongRecords() {
			w.Write(rec)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("--json--\n")
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestDispatchByteIdentical is the dispatcher's core property on
// randomized seeded grids: for any worker count, steal schedule, or
// mid-run worker death (with retry budget to absorb it), the
// distributed sweep's CSV, long, and JSON outputs are byte-identical
// to the in-process -par run. Which process ran a cell is pure
// scheduling and must never reach the output.
func TestDispatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve sweeps")
	}
	ctx := context.Background()
	minorPool := [][]uint{{7}, {6, 7}, {7, 8}}
	for i := 0; i < 3; i++ {
		rng := rand.New(rand.NewSource(int64(0xD15BA + i)))
		axes := SweepAxes{
			Configs:   []string{"sct"},
			MinorBits: minorPool[rng.Intn(len(minorPool))],
			MetaKB:    []int{64},
			Noise:     []arch.Cycles{0},
			Seeds:     1 + rng.Intn(2),
			Seed:      rng.Uint64(),
			Bits:      8,
			Set:       []string{"SecurePages=16384", "FastCrypto=true"},
		}
		if rng.Intn(2) == 0 {
			axes.Configs = []string{"sct", "sgx"}
		}
		name := fmt.Sprintf("grid%d", i)

		baseline, err := SweepOpts(ctx, axes, SweepOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: -par 4 baseline: %v", name, err)
		}
		want := renderAll(t, baseline)

		for _, workers := range []int{1, 4} {
			rows, err := sweepKind.runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{}, workers, nil)
			if err != nil {
				t.Fatalf("%s: %d-worker run: %v", name, workers, err)
			}
			if got := renderAll(t, rows); got != want {
				t.Errorf("%s: %d-worker output differs from -par 4:\n%s", name, workers,
					firstDiff(want, got))
			}
		}

		// One worker dies mid-run holding a random cell; the lease
		// re-issues against the retry budget and the scar is invisible.
		victim := rng.Intn(len(baseline))
		plan, err := faults.Parse(fmt.Sprintf("harness:disconnect@%dx1", victim))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sweepKind.runLocalDispatch(ctx, axes, SweepOptions{Retries: 1}, DispatchOptions{}, 4, plan.NewHarness())
		if err != nil {
			t.Fatalf("%s: kill-mid-run run: %v", name, err)
		}
		if got := renderAll(t, rows); got != want {
			t.Errorf("%s: output after killing the worker on cell %d differs from -par 4:\n%s",
				name, victim, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first differing line of two renderings, so a
// byte-identity failure reports the divergent row instead of two
// full dumps.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}

// TestDispatchQuarantinedRowMatchesInProcess: a cell whose every lease
// dies renders exactly like an in-process quarantined cell — joined
// attempt errors, attempt count, quarantine flag — with the fixed
// disconnect message (no worker IDs, no timing).
func TestDispatchQuarantinedRowMatchesInProcess(t *testing.T) {
	forKinds(t, checkDispatchQuarantine, checkDispatchQuarantine)
}

func checkDispatchQuarantine[A any, C comparable, R interface{ CSVRecord() []string }](t *testing.T, kc kindCase[A, C, R]) {
	ctx := context.Background()
	plan, err := faults.Parse("harness:disconnect@1x2")
	if err != nil {
		t.Fatal(err)
	}
	want := kc.run(t, kc.axes, SweepOptions{Workers: 2})
	rows, err := kc.k.runLocalDispatch(ctx, kc.axes, SweepOptions{Retries: 1}, DispatchOptions{}, 3, plan.NewHarness())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	wantErr := dispatch.DisconnectErr + "\n" + dispatch.DisconnectErr
	if q := kc.k.failed(kc.k.cellOf(want[1]), wantErr, 2, true); !reflect.DeepEqual(rows[1], q) {
		t.Fatalf("quarantined row = %+v\nwant %+v", rows[1], q)
	}
	if rec := rows[1].CSVRecord(); rec[len(rec)-1] != "true" || rec[len(rec)-2] != "2" {
		t.Fatalf("quarantine did not reach the CSV rendering: %v", rec)
	}
	want[1] = rows[1]
	if err := rowsIdentical(want, rows); err != nil {
		t.Fatalf("quarantine perturbed other rows: %v", err)
	}
}

// TestDispatchVersionSkewRefused: a worker whose binary expands a
// different grid than the coordinator's job fingerprint refuses the
// job instead of contributing wrong rows.
func TestDispatchVersionSkewRefused(t *testing.T) {
	axes := tinyAxes()
	spec, err := json.Marshal(gridJob[SweepAxes]{Axes: axes, Fingerprint: "not-the-real-fingerprint"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJobSession(spec); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("skewed job error = %v, want version-skew refusal", err)
	}
}

// TestChaosDispatchInvariants runs the chaos driver's dispatch leg —
// identity, drop/re-lease recovery, and drop quarantine — under the
// test harness so `go test` covers what `metaleak chaos` gates in CI.
func TestChaosDispatchInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four sweeps")
	}
	if err := ChaosDispatch(context.Background(), 0xC4A05); err != nil {
		t.Fatal(err)
	}
}
