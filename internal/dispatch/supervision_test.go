package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the self-healing layer: shared-token auth, the job frame's
// advertised lease timeout, revive-budget revocations, retry-backoff
// pacing, dial retry, the fleet supervisor, and the drain-after-cancel
// regression.

// TestDispatchDrainAfterCancel is the deterministic regression test for
// the PR 8 drain-after-cancel fix: a cancellation racing the disconnect
// event of the last worker — whose handling is what quarantines the
// revoked cell and decides the grid — must drain that event and report
// the settled grid instead of "context canceled". Both interleavings
// (cancel first, disconnect first) are exercised by the same body; the
// sleep biases toward the cancel-first ordering the fix exists for.
func TestDispatchDrainAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 1}), grid(1), Options{MaxLeases: 1})

	ran := runAsync(ctx, co, ln)

	// Raw peer: handshake, lease the only cell, then die without a
	// result — after the test cancels the run.
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	WriteFrame(conn, Frame{Type: FrameHello, Hello: &Hello{Worker: "mortal", Proto: ProtoVersion}})
	if f, err := ReadFrame(br); err != nil || f.Type != FrameJob {
		t.Fatalf("handshake: %+v, %v", f, err)
	}
	WriteFrame(conn, Frame{Type: FrameWant})
	if f, err := ReadFrame(br); err != nil || f.Type != FrameLease {
		t.Fatalf("lease: %+v, %v", f, err)
	}

	cancel()
	time.Sleep(20 * time.Millisecond) // bias: let the cancel enter the drain loop first
	conn.Close()                      // the disconnect event that decides the grid

	out := <-ran
	if out.err != nil {
		t.Fatalf("decided grid reported %v, want nil (drain-after-cancel regression)", out.err)
	}
	s, ok := out.settled[0]
	if !ok {
		t.Fatal("cell 0 never settled")
	}
	if s.Err != DisconnectErr || s.Attempts != 1 {
		t.Errorf("cell 0 = %+v, want quarantine after 1 revoked attempt", s)
	}
}

// TestDispatchAuthToken: a coordinator with a token admits a matching
// worker and refuses a mismatched one with a fail frame — before
// revealing any job details.
func TestDispatchAuthToken(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 4}), grid(5), Options{Token: "s3cret"})
	ran := runAsync(ctx, co, ln)

	refused := make(chan string, 1)
	go func() {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		WriteFrame(conn, Frame{Type: FrameHello, Hello: &Hello{Worker: "intruder", Proto: ProtoVersion, Token: "wrong"}})
		if f, err := ReadFrame(br); err == nil && f.Type == FrameFail {
			refused <- f.Fail.Reason
		} else {
			refused <- fmt.Sprintf("unexpected: %+v, %v", f, err)
		}
	}()
	select {
	case reason := <-refused:
		if !strings.Contains(reason, "authentication failed") {
			t.Errorf("refusal = %q, want an authentication failure", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mismatched worker never refused")
	}

	var wg sync.WaitGroup
	w := &Worker{ID: "member", Heartbeat: 20 * time.Millisecond, Token: "s3cret",
		Init: func(json.RawMessage) (Session, error) { return testSession(testJob{Mult: 4}, nil, nil), nil }}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			return
		}
		w.Run(ctx, conn)
	}()

	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkPayloads(t, out.settled, 5, 4)
	cancel()
	wg.Wait()
}

// TestDispatchHeartbeatVsLeaseTimeout: the job frame advertises the
// coordinator's lease timeout, and a worker whose heartbeat interval is
// not under it fails fast at handshake instead of being silently reaped
// mid-cell.
func TestDispatchHeartbeatVsLeaseTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 6}), grid(3), Options{
		LeaseTimeout: 250 * time.Millisecond,
	})
	ran := runAsync(ctx, co, ln)

	slowErr := make(chan error, 1)
	slow := &Worker{ID: "slowbeat", Heartbeat: time.Second,
		Init: func(json.RawMessage) (Session, error) { return testSession(testJob{Mult: 6}, nil, nil), nil }}
	go func() {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			slowErr <- err
			return
		}
		slowErr <- slow.Run(ctx, conn)
	}()
	select {
	case err := <-slowErr:
		if err == nil || !strings.Contains(err.Error(), "lease timeout") {
			t.Errorf("slow-heartbeat worker returned %v, want a handshake lease-timeout refusal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow-heartbeat worker never returned")
	}

	wg := startWorker(t, ctx, ln.Addr().String(), "healthy", testSession(testJob{Mult: 6}, nil, nil))
	out := <-ran
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkPayloads(t, out.settled, 3, 6)
	cancel()
	wg.Wait()
}

// TestDispatchReviveAbsorbsDrops: with a Revive budget, a revoked lease
// consumes no attempt and records no error — the dropped cell settles
// clean even at MaxLeases 1, where the historic accounting would have
// quarantined it.
func TestDispatchReviveAbsorbsDrops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 2}), grid(8), Options{
		MaxLeases: 1,
		Revive:    3,
	})
	dropped := false
	var mu sync.Mutex
	dropOnce := func(cell int) bool {
		mu.Lock()
		defer mu.Unlock()
		if cell == 5 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	wgA := startWorker(t, ctx, ln.Addr().String(), "flapper", testSession(testJob{Mult: 2}, nil, dropOnce))
	wgB := startWorker(t, ctx, ln.Addr().String(), "survivor", testSession(testJob{Mult: 2}, nil, dropOnce))
	settled, err := co.Run(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, settled, 8, 2)
	mu.Lock()
	wasDropped := dropped
	mu.Unlock()
	if !wasDropped {
		t.Fatal("drop hook never fired")
	}
	if s := settled[5]; s.Attempts != 1 || len(s.Errs) != 0 {
		t.Errorf("revived cell: attempts=%d errs=%v, want a clean single attempt", s.Attempts, s.Errs)
	}
	cancel()
	wgA.Wait()
	wgB.Wait()
}

// TestDispatchRetryBackoffPaces: a configured retry backoff delays the
// re-lease of a failed cell (the cooling queue) without changing its
// outcome.
func TestDispatchRetryBackoffPaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	const pause = 150 * time.Millisecond
	co := NewCoordinator(jobSpec(t, testJob{Mult: 3}), grid(2), Options{
		MaxLeases:    2,
		RetryBackoff: func(int) time.Duration { return pause },
	})
	sess := testSession(testJob{Mult: 3}, map[int]int{1: 1}, nil)
	wg := startWorker(t, ctx, ln.Addr().String(), "w0", sess)
	start := time.Now()
	settled, err := co.Run(ctx, ln)
	if err != nil {
		t.Fatal(err)
	}
	checkPayloads(t, settled, 2, 3)
	if s := settled[1]; s.Attempts != 2 || len(s.Errs) != 1 {
		t.Errorf("retried cell: %+v, want success on attempt 2", s)
	}
	if elapsed := time.Since(start); elapsed < pause {
		t.Errorf("run finished in %v, but the retry backoff alone is %v", elapsed, pause)
	}
	cancel()
	wg.Wait()
}

// TestDialRetry: a worker can start before its coordinator — DialRetry
// keeps trying on a deterministic schedule and attaches once the
// listener appears; an address that never appears exhausts the budget
// with the last dial error.
func TestDialRetry(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "late.sock")
	accepted := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond)
		ln, err := Listen(sock)
		if err != nil {
			return
		}
		defer ln.Close()
		if conn, err := ln.Accept(); err == nil {
			conn.Close()
			close(accepted)
		}
	}()
	conn, err := DialRetry(context.Background(), sock, 20, func(int) time.Duration { return 25 * time.Millisecond })
	if err != nil {
		t.Fatalf("DialRetry never attached to the late listener: %v", err)
	}
	conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("listener never accepted")
	}

	_, err = DialRetry(context.Background(), filepath.Join(t.TempDir(), "never.sock"), 2,
		func(int) time.Duration { return time.Millisecond })
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Errorf("exhausted DialRetry = %v, want a gave-up error", err)
	}
}

// TestSupervisorRespawn: a slot whose worker keeps dying is respawned
// (with attempt numbers counting up) until it drains; a slot that can
// never start exhausts its budget and surfaces the last error.
func TestSupervisorRespawn(t *testing.T) {
	var mu sync.Mutex
	var attempts []int
	sup := &Supervisor{
		Workers: 1,
		Start: func(ctx context.Context, slot, attempt int) error {
			mu.Lock()
			attempts = append(attempts, attempt)
			mu.Unlock()
			if attempt < 3 {
				return fmt.Errorf("death %d", attempt)
			}
			return nil // drained
		},
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatalf("supervised slot drained but Run returned %v", err)
	}
	mu.Lock()
	got := fmt.Sprint(attempts)
	mu.Unlock()
	if got != "[1 2 3]" {
		t.Errorf("attempts = %v, want [1 2 3]", got)
	}

	hopeless := &Supervisor{
		Workers:     2,
		MaxRespawns: 2,
		Start: func(ctx context.Context, slot, attempt int) error {
			return fmt.Errorf("slot %d attempt %d", slot, attempt)
		},
	}
	err := hopeless.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exhausted its 2-respawn budget") {
		t.Errorf("hopeless fleet = %v, want a budget-exhaustion error", err)
	}
}

// TestSupervisedFlap: the full self-healing loop at the dispatch layer —
// a supervised fleet whose workers keep dropping mid-lease (respawned
// with DialRetry) completes the grid with zero quarantined cells and
// clean attempt accounting, because the coordinator's Revive budget
// absorbs every revocation.
func TestSupervisedFlap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := mustListen(t)
	co := NewCoordinator(jobSpec(t, testJob{Mult: 11}), grid(12), Options{
		MaxLeases:    1,
		Revive:       8,
		RetryBackoff: func(int) time.Duration { return time.Millisecond },
	})

	var mu sync.Mutex
	deaths := 0
	drop := func(cell int) bool {
		mu.Lock()
		defer mu.Unlock()
		if deaths < 3 {
			deaths++
			return true
		}
		return false
	}

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	supDone := make(chan error, 1)
	sup := &Supervisor{
		Workers: 2,
		Backoff: func(int) time.Duration { return time.Millisecond },
		Start: func(ctx context.Context, slot, attempt int) error {
			conn, err := DialRetry(ctx, ln.Addr().String(), 5, func(int) time.Duration { return 5 * time.Millisecond })
			if err != nil {
				return err
			}
			w := &Worker{ID: fmt.Sprintf("flap-%d-%d", slot, attempt), Heartbeat: 20 * time.Millisecond,
				Init: func(json.RawMessage) (Session, error) { return testSession(testJob{Mult: 11}, nil, drop), nil }}
			return w.Run(ctx, conn)
		},
	}
	go func() { supDone <- sup.Run(fctx) }()

	settled, err := co.Run(ctx, ln)
	fcancel()
	if err != nil {
		t.Fatal(err)
	}
	if serr := <-supDone; serr != nil {
		t.Fatalf("supervisor: %v", serr)
	}
	checkPayloads(t, settled, 12, 11)
	for i, s := range settled {
		if s.Attempts != 1 || len(s.Errs) != 0 {
			t.Errorf("cell %d: attempts=%d errs=%v, want clean single attempt", i, s.Attempts, s.Errs)
		}
	}
	mu.Lock()
	d := deaths
	mu.Unlock()
	if d != 3 {
		t.Errorf("fleet died %d times, want 3", d)
	}
}
