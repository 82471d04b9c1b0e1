package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// kindCase is one grid engine under test: its kind, a small clean grid,
// a grid whose cell 1 fails deterministically (an unknown config), and
// a grid that differs from the clean one only in its base seed. The
// engine tests below take it as a table input, so sweep and hunt run
// the same checks.
type kindCase[A any, C comparable, R any] struct {
	k       *gridKind[A, C, R]
	axes    A
	failing A
	other   A
}

func sweepCase() kindCase[SweepAxes, SweepCell, SweepRow] {
	failing := tinyAxes()
	failing.Configs = []string{"sct", "bogus"}
	failing.MinorBits = []uint{7}
	failing.Seeds = 1
	other := tinyAxes()
	other.Seed++
	return kindCase[SweepAxes, SweepCell, SweepRow]{sweepKind, tinyAxes(), failing, other}
}

func huntCase() kindCase[HuntAxes, HuntCell, HuntRow] {
	failing := huntTestAxes()
	failing.Configs = []string{"sct", "bogus"}
	failing.Programs, failing.Pairs = 1, 1
	other := huntTestAxes()
	other.Seed++
	return kindCase[HuntAxes, HuntCell, HuntRow]{huntKind, huntTestAxes(), failing, other}
}

// forKinds runs check as one subtest per engine.
func forKinds(t *testing.T,
	sweep func(*testing.T, kindCase[SweepAxes, SweepCell, SweepRow]),
	hunt func(*testing.T, kindCase[HuntAxes, HuntCell, HuntRow])) {
	t.Run("sweep", func(t *testing.T) { sweep(t, sweepCase()) })
	t.Run("hunt", func(t *testing.T) { hunt(t, huntCase()) })
}

// run is the in-process grid under opts, failing the test on error.
func (kc kindCase[A, C, R]) run(t *testing.T, axes A, opts SweepOptions) []R {
	t.Helper()
	rows, err := kc.k.runGrid(context.Background(), axes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func (kc kindCase[A, C, R]) open(t *testing.T, path string, axes A) *checkpoint[A, C, R] {
	t.Helper()
	cp, err := openCheckpoint(kc.k, path, axes)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestFingerprintCoversSweepIdentity(t *testing.T) {
	base := tinyAxes()
	fp := base.Fingerprint()
	if fp != base.Fingerprint() {
		t.Fatal("fingerprint is not stable")
	}
	perturb := []func(*SweepAxes){
		func(a *SweepAxes) { a.Seed++ },
		func(a *SweepAxes) { a.Bits++ },
		func(a *SweepAxes) { a.Seeds++ },
		func(a *SweepAxes) { a.MinorBits = []uint{5, 7} },
		func(a *SweepAxes) { a.Configs = []string{"ht"} },
		func(a *SweepAxes) { a.Set = []string{"FastCrypto=true"} },
	}
	for i, f := range perturb {
		a := tinyAxes()
		f(&a)
		if a.Fingerprint() == fp {
			t.Fatalf("perturbation %d does not change the fingerprint", i)
		}
	}
}

// TestResumeByteIdentical is the acceptance property: a grid
// interrupted mid-run and resumed from its checkpoint produces output
// identical to an uninterrupted run, for more than one worker count.
// The interrupted state is constructed exactly as a killed run leaves
// it: a checkpoint holding the first k completed rows.
func TestResumeByteIdentical(t *testing.T) {
	forKinds(t, checkResumeByteIdentical, checkResumeByteIdentical)
}

func checkResumeByteIdentical[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	want := kc.run(t, kc.axes, SweepOptions{Workers: 2})
	for _, workers := range []int{1, 4} {
		for _, k := range []int{0, 1, len(want)} {
			path := filepath.Join(t.TempDir(), "cp.jsonl")
			cp := kc.open(t, path, kc.axes)
			for _, row := range want[:k] {
				cp.Append(row)
			}
			if err := cp.Err(); err != nil {
				t.Fatal(err)
			}
			opts := SweepOptions{Workers: workers, Checkpoint: path}
			if got := kc.run(t, kc.axes, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d k=%d: resumed rows differ:\n got %+v\nwant %+v", workers, k, got, want)
			}
			// The persisted file itself must round-trip: a second resume
			// runs nothing and still reproduces the grid.
			if again := kc.run(t, kc.axes, opts); !reflect.DeepEqual(again, want) {
				t.Fatalf("workers=%d k=%d: second resume differs", workers, k)
			}
		}
	}
}

// TestResumeReRunsFailedCells: failed rows in a checkpoint are retried
// on resume; a deterministic failure reproduces the identical row.
func TestResumeReRunsFailedCells(t *testing.T) {
	forKinds(t, checkResumeReRunsFailedCells, checkResumeReRunsFailedCells)
}

func checkResumeReRunsFailedCells[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	want := kc.run(t, kc.failing, SweepOptions{Workers: 2})
	if kc.k.errOf(want[1]) == "" {
		t.Fatal("fixture lost its failing cell")
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	kc.open(t, path, kc.failing).Append(want[1]) // only the failed row is checkpointed
	got := kc.run(t, kc.failing, SweepOptions{Workers: 2, Checkpoint: path})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume with a failed row differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointFingerprintMismatchFailsLoudly(t *testing.T) {
	forKinds(t, checkFingerprintMismatch, checkFingerprintMismatch)
}

func checkFingerprintMismatch[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	kc.run(t, kc.axes, SweepOptions{Workers: 2, Checkpoint: path})
	_, err := kc.k.runGrid(context.Background(), kc.other, SweepOptions{Workers: 2, Checkpoint: path})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched checkpoint accepted: %v", err)
	}
}

func TestCheckpointRejectsCorruptFiles(t *testing.T) {
	forKinds(t, checkRejectsCorruptFiles, checkRejectsCorruptFiles)
}

func checkRejectsCorruptFiles[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	dir := t.TempDir()
	// A complete (newline-terminated) body line that is not a row is
	// NOT a crash signature — crashes tear the tail, they do not rewrite
	// the middle — so it still fails loudly.
	midline := string(mustReadFile(t, writeCheckpointFixture(t, dir, kc.k, kc.axes))) + "not a row\n"
	for name, content := range map[string]string{
		"garbage.jsonl": "not json at all\n",
		"midline.jsonl": midline,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openCheckpoint(kc.k, path, kc.axes); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}

	// A row whose cell does not belong to the grid is rejected even
	// under a matching header: here cell 0's row claims index 1.
	path := filepath.Join(dir, "tampered.jsonl")
	rows := kc.run(t, kc.axes, SweepOptions{Workers: 2})
	kc.open(t, path, kc.axes).Append(kc.k.reindex(rows[0], 1))
	if _, err := openCheckpoint(kc.k, path, kc.axes); err == nil {
		t.Fatal("tampered cell accepted")
	}
}

// writeCheckpointFixture writes a checkpoint file containing only the
// valid header line for axes and returns its path.
func writeCheckpointFixture[A any, C comparable, R any](t *testing.T, dir string, k *gridKind[A, C, R], axes A) string {
	t.Helper()
	axes = k.normalize(axes)
	hdr, err := json.Marshal(checkpointHeader{
		Format:      k.format,
		Fingerprint: k.fingerprint(axes),
		Cells:       len(k.cells(axes)),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fixture.jsonl")
	if err := os.WriteFile(path, append(hdr, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointEmptyFileIsFresh: a zero-byte file is the signature of
// a crash between create and the header append — it begins an empty
// checkpoint rather than failing the resume.
func TestCheckpointEmptyFileIsFresh(t *testing.T) {
	forKinds(t, checkEmptyFileIsFresh, checkEmptyFileIsFresh)
}

func checkEmptyFileIsFresh[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := openCheckpoint(kc.k, path, kc.axes)
	if err != nil {
		t.Fatalf("empty file rejected: %v", err)
	}
	if cp.Discarded() != "" || len(cp.Completed()) != 0 {
		t.Fatalf("empty file is not a fresh checkpoint: discarded=%q rows=%d",
			cp.Discarded(), len(cp.Completed()))
	}
}

// TestCheckpointSalvagesTornTrailingLine: a checkpoint whose final line
// was torn mid-append (the SIGKILL signature) salvages every complete
// row, reports the tear via Discarded, cuts it off the file, and the
// resumed grid reproduces the uninterrupted output exactly.
func TestCheckpointSalvagesTornTrailingLine(t *testing.T) {
	forKinds(t, checkSalvagesTornTrailingLine, checkSalvagesTornTrailingLine)
}

func checkSalvagesTornTrailingLine[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	want := kc.run(t, kc.axes, SweepOptions{Workers: 2})
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp := kc.open(t, path, kc.axes)
	cp.Append(want[0])
	cp.Append(want[1])
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	data := mustReadFile(t, path)
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	salvaged, err := openCheckpoint(kc.k, path, kc.axes)
	if err != nil {
		t.Fatalf("torn trailing line rejected: %v", err)
	}
	if salvaged.Discarded() == "" {
		t.Error("tear salvaged silently — Discarded is empty")
	}
	done := salvaged.Completed()
	if len(done) != 1 {
		t.Fatalf("salvaged %d rows, want 1", len(done))
	}
	if got, ok := done[0]; !ok || !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("salvaged row = %+v, want %+v", got, want[0])
	}
	if after := mustReadFile(t, path); !bytes.HasSuffix(after, []byte("\n")) {
		t.Error("open did not cut the torn line off the file")
	}
	if err := salvaged.Close(); err != nil {
		t.Fatal(err)
	}

	got := kc.run(t, kc.axes, SweepOptions{Workers: 2, Checkpoint: path})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after salvage differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointTornHeaderStartsFresh: a file holding a single
// unterminated line is a crash before the header append completed —
// nothing is salvageable, so resume starts fresh and still converges.
func TestCheckpointTornHeaderStartsFresh(t *testing.T) {
	forKinds(t, checkTornHeaderStartsFresh, checkTornHeaderStartsFresh)
}

func checkTornHeaderStartsFresh[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte(`{"Format":"metaleak-`), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := openCheckpoint(kc.k, path, kc.axes)
	if err != nil {
		t.Fatalf("torn header rejected: %v", err)
	}
	if cp.Discarded() == "" || len(cp.Completed()) != 0 {
		t.Fatalf("torn header: discarded=%q rows=%d", cp.Discarded(), len(cp.Completed()))
	}
	if got := mustReadFile(t, path); len(got) != 0 {
		t.Errorf("torn header left %d bytes, want 0", len(got))
	}
	want := kc.run(t, kc.axes, SweepOptions{Workers: 2})
	got := kc.run(t, kc.axes, SweepOptions{Workers: 2, Checkpoint: path})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grid after torn header differs:\n got %+v\nwant %+v", got, want)
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCancelledSweepReportsCompletedRows: a cancelled context does not
// discard completed rows. With every cell but one checkpointed and the
// context already cancelled, the run returns the completed rows
// alongside the cancellation error.
func TestCancelledSweepReportsCompletedRows(t *testing.T) {
	forKinds(t, checkCancelledReportsCompletedRows, checkCancelledReportsCompletedRows)
}

func checkCancelledReportsCompletedRows[A any, C comparable, R any](t *testing.T, kc kindCase[A, C, R]) {
	want := kc.run(t, kc.axes, SweepOptions{Workers: 2})
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp := kc.open(t, path, kc.axes)
	for _, row := range want[:len(want)-1] {
		cp.Append(row)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := kc.k.runGrid(ctx, kc.axes, SweepOptions{Workers: 2, Checkpoint: path})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(rows, want[:len(want)-1]) {
		t.Fatalf("cancelled run dropped completed rows:\n got %+v\nwant %+v", rows, want[:len(want)-1])
	}

	// Without a checkpoint, a cancelled-before-start run reports no
	// rows but still distinguishes cancellation from cell failure.
	rows, err = kc.k.runGrid(ctx, kc.axes, SweepOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) || len(rows) != 0 {
		t.Fatalf("fresh cancelled run: rows=%d err=%v", len(rows), err)
	}
}
