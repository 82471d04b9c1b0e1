package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"metaleak/internal/arch"
	"metaleak/internal/dispatch"
	"metaleak/internal/experiments"
	"metaleak/internal/runner"
)

const testToken = "s3cret-test-token"

// newTestServer builds a Server with an in-process supervised fleet
// (worker goroutines speaking the real wire protocol over loopback),
// starts its run loop and an httptest front-end, and tears everything
// down with the test.
func newTestServer(t *testing.T, workers int) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	cfg := Config{
		Token:    testToken,
		StateDir: t.TempDir(),
		Workers:  workers,
		Retries:  1,
		Revive:   8,
		Log:      t.Logf,
		SpawnWorker: func(ctx context.Context, slot, attempt int, addr string) error {
			conn, err := dispatch.DialRetry(ctx, addr, 5, runner.ExpBackoff(5*time.Millisecond))
			if err != nil {
				return err
			}
			w := &dispatch.Worker{
				ID:        fmt.Sprintf("t-%d-%d", slot, attempt),
				Heartbeat: 50 * time.Millisecond,
				Token:     testToken,
				Init:      experiments.NewJobSession,
			}
			return w.Run(ctx, conn)
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run loop: %v", err)
		}
	})
	return s, hs, cancel
}

func testAxes(seeds int) experiments.SweepAxes {
	return experiments.SweepAxes{
		Configs:   []string{"sct"},
		MinorBits: []uint{7},
		MetaKB:    []int{64},
		Noise:     []arch.Cycles{0},
		Seeds:     seeds,
		Seed:      31,
		Bits:      8,
		Set:       []string{"SecurePages=16384", "FastCrypto=true"},
	}
}

// request performs one authenticated call against the test server.
func request(t *testing.T, hs *httptest.Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, hs.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+testToken)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeLifecycle: submit, wait, fetch — the CSV, long CSV, and
// JSON documents a served sweep renders are byte-identical to the
// CLI's own rendering of the same grid, and auth guards every /v1
// route while /healthz stays open.
func TestServeLifecycle(t *testing.T) {
	_, hs, _ := newTestServer(t, 2)
	axes := testAxes(2)

	// Auth: no token → 401 on /v1, 200 on /healthz.
	if resp, err := hs.Client().Get(hs.URL + "/v1/status"); err != nil || resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/status: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := hs.Client().Get(hs.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	resp, body := request(t, hs, "POST", "/v1/sweeps", axes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var sub struct {
		Status
		Reused bool
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Reused || sub.Cells != 2 {
		t.Fatalf("submit status: %+v", sub)
	}

	want, err := experiments.SweepOpts(context.Background(), axes, experiments.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ path, name string }{
		{"/v1/sweeps/" + sub.ID + "/csv?wait=1", "csv"},
		{"/v1/sweeps/" + sub.ID + "/csv?wait=1&long=1", "long csv"},
		{"/v1/sweeps/" + sub.ID + "/json?wait=1", "json"},
	} {
		resp, got := request(t, hs, "GET", q.path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", q.name, resp.Status, got)
		}
		var buf bytes.Buffer
		switch q.name {
		case "csv":
			err = experiments.WriteRowsCSV(&buf, want, false)
		case "long csv":
			err = experiments.WriteRowsCSV(&buf, want, true)
		case "json":
			err = experiments.WriteSweepJSON(&buf, axes, want)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s differs from the CLI rendering:\ngot  %q\nwant %q", q.name, got, buf.Bytes())
		}
	}

	// Status reflects a finished run with every cell computed live.
	resp, body = request(t, hs, "GET", "/v1/sweeps/"+sub.ID, nil)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != StateDone || st.Computed != 2 || st.Quarantined != 0 {
		t.Fatalf("final status: %s %+v", resp.Status, st)
	}

	// The rows stream replays every settled row (terminal run: the
	// stream ends on its own).
	_, nd := request(t, hs, "GET", "/v1/sweeps/"+sub.ID+"/rows", nil)
	lines := strings.Split(strings.TrimSpace(string(nd)), "\n")
	if len(lines) != 2 {
		t.Fatalf("rows stream: %d lines, want 2:\n%s", len(lines), nd)
	}
	var row experiments.SweepRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("rows stream line 1: %v", err)
	}

	if resp, _ := request(t, hs, "GET", "/v1/sweeps/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing sweep: %s", resp.Status)
	}
}

// TestServeCacheAndOverlap: a resubmitted grid is served without
// computing (checkpoint + cell cache), and an overlapping larger grid
// computes only its new cells.
func TestServeCacheAndOverlap(t *testing.T) {
	_, hs, _ := newTestServer(t, 2)
	axes := testAxes(2)

	_, body := request(t, hs, "POST", "/v1/sweeps", axes)
	var first struct{ Status }
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if resp, _ := request(t, hs, "GET", "/v1/sweeps/"+first.ID+"/csv?wait=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %s", resp.Status)
	}

	// Identical grid again: a fresh run, zero cells computed.
	resp, body := request(t, hs, "POST", "/v1/sweeps", axes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s: %s", resp.Status, body)
	}
	var again struct{ Status }
	json.Unmarshal(body, &again)
	if again.ID == first.ID {
		t.Fatalf("finished run was reused; want a fresh cache-served run")
	}
	_, got1 := request(t, hs, "GET", "/v1/sweeps/"+first.ID+"/csv?wait=1", nil)
	_, got2 := request(t, hs, "GET", "/v1/sweeps/"+again.ID+"/csv?wait=1", nil)
	if !bytes.Equal(got1, got2) {
		t.Error("cache-served rerun differs from the original")
	}
	_, body = request(t, hs, "GET", "/v1/sweeps/"+again.ID, nil)
	var st Status
	json.Unmarshal(body, &st)
	if st.Computed != 0 || st.Cached != 2 {
		t.Fatalf("resubmission computed %d / cached %d, want 0 / 2: %+v", st.Computed, st.Cached, st)
	}

	// Overlap: one more seed rep shares the first two cells.
	_, body = request(t, hs, "POST", "/v1/sweeps", testAxes(3))
	var big struct{ Status }
	json.Unmarshal(body, &big)
	if resp, _ := request(t, hs, "GET", "/v1/sweeps/"+big.ID+"/csv?wait=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("overlapping run: %s", resp.Status)
	}
	_, body = request(t, hs, "GET", "/v1/sweeps/"+big.ID, nil)
	json.Unmarshal(body, &st)
	if st.Cached != 2 || st.Computed != 1 {
		t.Fatalf("overlapping grid cached %d / computed %d, want 2 / 1: %+v", st.Cached, st.Computed, st)
	}
}

// TestServeDedupInFlight: submitting a grid identical to a queued or
// running one joins that run instead of queueing a duplicate.
func TestServeDedupInFlight(t *testing.T) {
	s, _, _ := newTestServer(t, 1)
	axes := testAxes(2)
	a, reused, err := s.Submit(axes)
	if err != nil || reused {
		t.Fatalf("first submit: %+v %v %v", a, reused, err)
	}
	b, reused, err := s.Submit(axes)
	if err != nil || !reused || b.ID != a.ID {
		t.Fatalf("second submit: %+v reused=%v err=%v, want reuse of %s", b, reused, err, a.ID)
	}
}

// TestServeDrain: cancelling the run context flips the service into
// draining — /healthz reports it, submissions are refused with 503 —
// and the run loop exits cleanly.
func TestServeDrain(t *testing.T) {
	_, hs, cancel := newTestServer(t, 0)
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := hs.Client().Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.TrimSpace(string(body)) == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining: %q", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := request(t, hs, "POST", "/v1/sweeps", testAxes(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %s: %s", resp.Status, body)
	}
}

// TestServeConsecutiveRuns: the supervised fleet is torn down and
// rebuilt per sweep — slots must DialRetry a listener that comes and
// goes between runs, and every run must finish clean. (Flap-fault
// recovery itself is proved by ChaosServe and the CI smoke job, which
// kill workers for real.)
func TestServeConsecutiveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two supervised sweeps")
	}
	_, hs, _ := newTestServer(t, 2)
	axes := testAxes(3)
	for i := 0; i < 2; i++ {
		ax := axes
		ax.Seed = uint64(100 + i)
		_, body := request(t, hs, "POST", "/v1/sweeps", ax)
		var sub struct{ Status }
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		resp, _ := request(t, hs, "GET", "/v1/sweeps/"+sub.ID+"/csv?wait=1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %s", i, resp.Status)
		}
		_, body = request(t, hs, "GET", "/v1/sweeps/"+sub.ID, nil)
		var st Status
		json.Unmarshal(body, &st)
		if st.State != StateDone || st.Quarantined != 0 {
			t.Fatalf("run %d status: %+v", i, st)
		}
	}
}
