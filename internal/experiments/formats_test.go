package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"metaleak/internal/arch"
)

// The on-disk formats a `metaleak serve` state directory and a resumable
// run depend on — grid and cell fingerprints, checkpoint files, the cell
// cache — are pinned here against fixtures written by an earlier build.
// A change that alters any of them invalidates every existing checkpoint
// and cache file, so these tests fail until the format string is bumped
// and the fixtures regenerated on purpose.

// smokeSweepAxes is the grid of testdata/sweep-smoke.csv:
//
//	metaleak sweep -configs sct,sgx -minor 6,7 -meta 64 -noise 0,4000 \
//	  -seeds 2 -bits 16 -seed 5 -set FastCrypto=true -set SecurePages=16384
func smokeSweepAxes() SweepAxes {
	return SweepAxes{
		Configs:   []string{"sct", "sgx"},
		MinorBits: []uint{6, 7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0, 4000},
		Seeds:     2,
		Seed:      5,
		Bits:      16,
		Set:       []string{"FastCrypto=true", "SecurePages=16384"},
	}
}

// smokeHuntAxes is the grid of internal/hunt/testdata/smoke.csv (the
// Makefile's HUNT_SMOKE).
func smokeHuntAxes() HuntAxes {
	return HuntAxes{Configs: []string{"sct", "ht"}, Programs: 4, Pairs: 2, Seed: 42}
}

func TestPinnedFingerprints(t *testing.T) {
	for _, c := range []struct {
		name, got, want string
	}{
		{"sweep smoke", smokeSweepAxes().Fingerprint(), "644b726c23d5d54a041573f955f6bcda6466e86471073d9d6dd9d605e24d2a3a"},
		{"sweep default", DefaultSweepAxes().Fingerprint(), "dcb9ff197c914adb3129039755b6d4010e3efca0648e9d53e8194a9d7a26dbb8"},
		{"sweep tiny", tinyAxes().Fingerprint(), "707fda5752cd2b3ce74ca1d4124498818b2c09c6729522a8762d54932d12f74a"},
		{"hunt smoke", smokeHuntAxes().Fingerprint(), "9b9f89d00449922c398ef072349d866a824d1c97b6103cacc48391845b465430"},
		{"hunt default", DefaultHuntAxes().Fingerprint(), "21f93de6c0cd8d8fc6e87b75e468906a9cf06570bcdf20b0d7cc793a1c371a24"},
		{"hunt test", huntTestAxes().Fingerprint(), "857d4e9c5f6e0fa0009f1f07438a476730b87e66e5f137a7f02378c5ef47ddc6"},
		{"cell 0", CellFingerprint(smokeSweepAxes().Cells()[0], 16, smokeSweepAxes().Set), "e5ee231770e6489af986f04a1da1d2375f8d1e078ed2cc064cf4d1cb52b39683"},
		{"cell sgx", CellFingerprint(smokeSweepAxes().Cells()[11], 16, smokeSweepAxes().Set), "b0d0666af52045b7edecbd0ee70ba4efdd254d154b46921bd1743e12399dad06"},
		{"cell bare", CellFingerprint(sampleRow(3, 1).SweepCell, 8, nil), "01c9c381dc95c43d571e7aca2ee5c9a41197999cb30d54e19d6b1ee71a28672a"},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint = %q, want %q", c.name, c.got, c.want)
		}
	}
}

// csvBytes renders rows exactly as the CLI's CSV output does.
func csvBytes[R interface{ CSVRecord() []string }](t *testing.T, header []string, rows []R) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(header)
	for _, r := range rows {
		w.Write(r.CSVRecord())
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyFixture copies a testdata file into a fresh temp dir, so opening
// it (which may append or cut a torn tail) never touches the fixture.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, mustReadFile(t, filepath.Join("testdata", name)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepGolden: the small sweep grid reproduces its committed CSV at
// -par 1 and -par 4, through the local dispatch path, and resumed from
// the committed partial checkpoint (which holds four clean rows and one
// failed row that the resume re-runs).
func TestSweepGolden(t *testing.T) {
	ctx := context.Background()
	axes := smokeSweepAxes()
	want := mustReadFile(t, filepath.Join("testdata", "sweep-smoke.csv"))
	check := func(how string, rows []SweepRow, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if got := csvBytes(t, CSVHeader(), rows); !bytes.Equal(got, want) {
			t.Errorf("%s output differs from testdata/sweep-smoke.csv:\n%s", how, firstDiff(string(want), string(got)))
		}
	}
	for _, par := range []int{1, 4} {
		rows, err := SweepOpts(ctx, axes, SweepOptions{Workers: par})
		check(fmt.Sprintf("-par %d", par), rows, err)
	}
	rows, err := sweepKind.runLocalDispatch(ctx, axes, SweepOptions{}, DispatchOptions{}, 2, nil)
	check("local dispatch", rows, err)

	path := copyFixture(t, "sweep-checkpoint.jsonl")
	cp, err := openCheckpoint(sweepKind, path, axes)
	if err != nil {
		t.Fatalf("committed sweep checkpoint rejected: %v", err)
	}
	if n := len(cp.Completed()); n != 4 {
		t.Fatalf("committed sweep checkpoint: %d completed rows, want 4", n)
	}
	cp.Close()
	rows, err = SweepOpts(ctx, axes, SweepOptions{Workers: 1, Checkpoint: path})
	check("checkpoint resume", rows, err)
	sameFile(t, path, "sweep-checkpoint-resumed.jsonl")
}

// sameFile fails unless the file at path is byte-identical to the named
// testdata fixture.
func sameFile(t *testing.T, path, fixture string) {
	t.Helper()
	want := mustReadFile(t, filepath.Join("testdata", fixture))
	if got := mustReadFile(t, path); !bytes.Equal(got, want) {
		t.Errorf("%s differs from testdata/%s:\n%s", path, fixture, firstDiff(string(want), string(got)))
	}
}

// TestHuntCheckpointFixture: the committed partial hunt checkpoint
// loads, resuming from it reproduces the hunt smoke golden, and the
// resumed file matches the one an earlier build left behind.
func TestHuntCheckpointFixture(t *testing.T) {
	axes := smokeHuntAxes()
	want := mustReadFile(t, filepath.Join("..", "hunt", "testdata", "smoke.csv"))
	path := copyFixture(t, "hunt-checkpoint.jsonl")
	cp, err := openCheckpoint(huntKind, path, axes)
	if err != nil {
		t.Fatalf("committed hunt checkpoint rejected: %v", err)
	}
	if n := len(cp.Completed()); n != 7 {
		t.Fatalf("committed hunt checkpoint: %d completed rows, want 7", n)
	}
	cp.Close()
	rows, err := HuntOpts(context.Background(), axes, SweepOptions{Workers: 1, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := csvBytes(t, HuntCSVHeader(), rows); !bytes.Equal(got, want) {
		t.Errorf("resumed hunt differs from the smoke golden:\n%s", firstDiff(string(want), string(got)))
	}
	sameFile(t, path, "hunt-checkpoint-resumed.jsonl")
}

// TestCellCacheFixture: the committed cell cache (written by `metaleak
// serve` for the seeds=1 slice of the smoke grid) loads, serves exactly
// the six cells it shares with the seeds=2 grid, and the merged output
// matches the sweep golden. Computing the seeds=1 slice into an empty
// cache writes the same entry lines (in completion order, so compared
// as a set).
func TestCellCacheFixture(t *testing.T) {
	cache, err := OpenResultCache(copyFixture(t, "cellcache.jsonl"))
	if err != nil {
		t.Fatalf("committed cell cache rejected: %v", err)
	}
	defer cache.Close()
	if cache.Len() != 6 {
		t.Fatalf("committed cell cache holds %d cells, want 6", cache.Len())
	}
	var cached, computed int
	rows, err := sweepKind.runLocalDispatch(context.Background(), smokeSweepAxes(), SweepOptions{}, DispatchOptions{
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
		t.Fatal(err)
	}
	if cached != 6 || computed != 6 {
		t.Errorf("cache fixture served %d cached + %d computed, want 6 + 6", cached, computed)
	}
	want := mustReadFile(t, filepath.Join("testdata", "sweep-smoke.csv"))
	if got := csvBytes(t, CSVHeader(), rows); !bytes.Equal(got, want) {
		t.Errorf("cache-served sweep differs from testdata/sweep-smoke.csv:\n%s", firstDiff(string(want), string(got)))
	}

	path := filepath.Join(t.TempDir(), "cellcache.jsonl")
	fresh, err := OpenResultCache(path)
	if err != nil {
		t.Fatal(err)
	}
	slice := smokeSweepAxes()
	slice.Seeds = 1
	if _, err := sweepKind.runLocalDispatch(context.Background(), slice, SweepOptions{}, DispatchOptions{Cache: fresh}, 2, nil); err != nil {
		t.Fatal(err)
	}
	fresh.Close()
	sorted := func(data []byte) string {
		lines := strings.Split(string(data), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if got, want := sorted(mustReadFile(t, path)), sorted(mustReadFile(t, filepath.Join("testdata", "cellcache.jsonl"))); got != want {
		t.Errorf("fresh cache lines differ from testdata/cellcache.jsonl:\n%s", firstDiff(want, got))
	}
}
