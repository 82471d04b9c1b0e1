package dispatch

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// This file is the coordinator: the single owner of a distributed run's
// truth. All scheduling state — shards, leases, attempt budgets, settled
// results — lives in one goroutine (the Run loop); connection readers
// only ferry frames into its event channel, so there is no locking and
// no order-dependence beyond the deterministic cell results themselves.
//
// Wall-clock time is legitimate here for the same reason it is in
// runner.Policy: lease timeouts and heartbeats police *host* processes
// that can crash or hang, never simulated time, which lives inside each
// worker's private machines.

// DisconnectErr is the attempt error recorded when a worker holding a
// lease dies (connection lost or heartbeat silence). It is a fixed
// string — worker names and timings must not leak into result rows, or
// quarantined rows would differ run to run.
const DisconnectErr = "worker disconnected mid-lease"

// Options configures a Coordinator. The zero value is usable: a 10s
// lease timeout and a single attempt per cell.
type Options struct {
	// LeaseTimeout is how long a worker may stay silent (no result, no
	// heartbeat) before it is declared dead and its leases revoke;
	// <= 0 selects 10s.
	LeaseTimeout time.Duration
	// MaxLeases is each cell's attempt budget: failed results and
	// revoked leases both consume one; a cell that exhausts it settles
	// as a failure. <= 0 selects 1.
	MaxLeases int
	// OnSettled, when non-nil, is called from the coordinator loop as
	// each cell settles — in completion order, like the runner's onDone —
	// so a caller can checkpoint incrementally.
	OnSettled func(cell int, s Settled)
	// Token, when non-empty, is the shared secret every worker must
	// present in its hello frame; a missing or wrong token is refused
	// (constant-time compare) before any job details are revealed. Use
	// it whenever the listener faces an untrusted network.
	Token string
	// Revive is the per-cell budget of lease revocations (worker death,
	// heartbeat silence) absorbed *without* consuming the cell's attempt
	// budget or recording an error. It is the supervised-fleet mode: a
	// dead worker respawns, so its cells should re-deal, not march
	// toward quarantine. <= 0 keeps the historic accounting — every
	// revocation consumes one attempt as DisconnectErr.
	Revive int
	// RetryBackoff, when non-nil, paces re-leases: a cell requeued after
	// a failed attempt or a revoked lease only becomes leasable again
	// after RetryBackoff(n), where n counts the cell's requeues starting
	// at 2 for the first (mirroring runner.Policy.Backoff). Nil requeues
	// immediately. Pure scheduling: pacing never appears in results.
	RetryBackoff func(attempt int) time.Duration
	// Log, when non-nil, receives human-readable scheduling events
	// (worker joins, deaths, steals). Results never depend on it.
	Log func(format string, args ...any)
}

// Settled is one cell's final outcome.
type Settled struct {
	// Payload is the worker-computed result; nil when the cell failed.
	Payload json.RawMessage
	// Err is empty on success, otherwise every attempt's error joined
	// with newlines (mirroring errors.Join) — lease-retry diagnostics
	// keep every attempt, not just the last.
	Err string
	// Errs holds the per-attempt errors in attempt order, including the
	// failed attempts behind an eventual success.
	Errs []string
	// Attempts is how many leases the cell consumed.
	Attempts int
}

// Coordinator shards a grid of cells over attached workers.
type Coordinator struct {
	job   json.RawMessage
	cells []int
	opts  Options
}

// NewCoordinator builds a coordinator for the given opaque job spec and
// the cell indices to run (typically 0..N-1 minus checkpointed cells).
func NewCoordinator(job json.RawMessage, cells []int, opts Options) *Coordinator {
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 10 * time.Second
	}
	if opts.MaxLeases <= 0 {
		opts.MaxLeases = 1
	}
	return &Coordinator{job: job, cells: cells, opts: opts}
}

// shard is one worker's deque of cell indices: leases pop from the
// head, thieves take from the tail. A dead worker's shard stays in the
// shard list, so its remaining cells are stolen like any others.
type shard struct {
	cells []int
}

// workerConn is the coordinator's view of one attached worker.
type workerConn struct {
	conn     net.Conn
	id       string
	shard    *shard
	leased   []int
	lastSeen time.Time
	parked   bool // has an unanswered want
	dead     bool
}

// cellState tracks one unsettled cell's attempt history.
type cellState struct {
	errs     []string
	attempts int
	revives  int // revocations absorbed under the Revive budget
	requeues int // total requeues, for the backoff schedule
}

// cooled is one requeued cell waiting out its retry backoff before it
// becomes leasable again.
type cooled struct {
	cell  int
	home  *shard
	ready time.Time
}

// connEvent is what reader goroutines ferry to the Run loop.
type connEvent struct {
	c   *workerConn
	f   Frame
	err error // transport/protocol failure; the connection is dead
}

// Run accepts workers on ln and drives the grid to completion: every
// cell settles (success, or failure after MaxLeases attempts) or ctx is
// cancelled. It returns the settled cells keyed by index — on
// cancellation the map holds whatever settled in time, alongside ctx's
// error. The listener is closed on return.
func (co *Coordinator) Run(ctx context.Context, ln net.Listener) (map[int]Settled, error) {
	settled := make(map[int]Settled, len(co.cells))
	if len(co.cells) == 0 {
		ln.Close()
		return settled, nil
	}

	events := make(chan connEvent, 64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Every accepted connection, adopted or not. A peer whose hello is
	// still queued when the grid settles never joins st.workers, so
	// shutdown does not close it; teardown must, or its reader stays
	// blocked in ReadFrame and wg.Wait never returns.
	var connMu sync.Mutex
	conns := make(map[net.Conn]bool)
	closing := false
	defer func() {
		close(done)
		ln.Close()
		connMu.Lock()
		closing = true
		for c := range conns { // close order is invisible: each only unblocks its own reader
			c.Close()
		}
		connMu.Unlock()
		wg.Wait()
	}()

	// Accept loop: one reader goroutine per connection. Readers never
	// touch coordinator state — they forward frames and die with their
	// connection (or when the run ends).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connMu.Lock()
			if closing {
				connMu.Unlock()
				conn.Close()
				return
			}
			conns[conn] = true
			connMu.Unlock()
			wc := &workerConn{conn: conn}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					conn.Close()
					connMu.Lock()
					delete(conns, conn)
					connMu.Unlock()
				}()
				br := bufio.NewReader(conn)
				for {
					f, err := ReadFrame(br)
					select {
					case events <- connEvent{c: wc, f: f, err: err}:
					case <-done:
						return
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	st := &coordState{
		co:      co,
		settled: settled,
		states:  make(map[int]*cellState),
		workers: make(map[*workerConn]bool),
	}
	// Seed one shard holding the whole grid; the first worker adopts
	// work by stealing from it like everyone else.
	seed := &shard{cells: append([]int(nil), co.cells...)}
	st.shards = append(st.shards, seed)

	sweep := co.opts.LeaseTimeout / 4
	if sweep < 10*time.Millisecond {
		sweep = 10 * time.Millisecond
	}
	ticker := time.NewTicker(sweep) //metalint:allow wallclock lease timeouts police host worker processes, not simulated time
	defer ticker.Stop()

	for len(st.settled) < len(co.cells) {
		// Arm a timer for the next cooling cell, if any, so ms-scale
		// retry backoffs release promptly instead of waiting for the
		// (lease-timeout-scale) reaper tick.
		var coolCh <-chan time.Time
		var coolTimer *time.Timer
		if d, ok := st.nextCool(); ok {
			if d <= 0 {
				st.releaseCooled()
				continue
			}
			coolTimer = time.NewTimer(d) //metalint:allow wallclock retry-backoff pacing of host re-leases, not simulated time
			coolCh = coolTimer.C
		}
		select {
		case <-ctx.Done():
			if coolTimer != nil {
				coolTimer.Stop()
			}
			// A cancelled run may still settle: the all-local-workers-
			// exited cancellation races the delivery of those workers'
			// own disconnect events, and handling them is what
			// quarantines the revoked cells. Drain events for a bounded
			// grace window before giving up, so a grid whose fate is
			// already decided reports it instead of "context canceled".
			grace := time.NewTimer(time.Second) //metalint:allow wallclock grace window for host worker connection teardown
			for len(st.settled) < len(co.cells) {
				select {
				case ev := <-events:
					st.handle(ev)
				case <-grace.C:
					st.shutdown()
					return settled, ctx.Err()
				}
			}
			grace.Stop()
			st.shutdown()
			return settled, nil
		case ev := <-events:
			st.handle(ev)
		case <-ticker.C:
			st.reapSilent()
			st.releaseCooled()
		case <-coolCh:
			st.releaseCooled()
		}
		if coolTimer != nil {
			coolTimer.Stop()
		}
	}
	st.shutdown()
	return settled, nil
}

// coordState is the Run loop's private scheduling state.
type coordState struct {
	co      *Coordinator
	shards  []*shard
	settled map[int]Settled
	states  map[int]*cellState
	workers map[*workerConn]bool
	parked  []*workerConn
	cooling []cooled
}

func (st *coordState) logf(format string, args ...any) {
	if st.co.opts.Log != nil {
		st.co.opts.Log(format, args...)
	}
}

// handle dispatches one connection event.
func (st *coordState) handle(ev connEvent) {
	if ev.err != nil {
		st.dropWorker(ev.c, "connection lost")
		return
	}
	ev.c.lastSeen = time.Now() //metalint:allow wallclock liveness bookkeeping for host worker processes
	switch ev.f.Type {
	case FrameHello:
		if ev.f.Hello.Proto != ProtoVersion {
			st.logf("dispatch: refusing worker %s: protocol %d, want %d", ev.f.Hello.Worker, ev.f.Hello.Proto, ProtoVersion)
			st.send(ev.c, Frame{Type: FrameFail, Fail: &Fail{
				Reason: fmt.Sprintf("protocol version %d, coordinator speaks %d", ev.f.Hello.Proto, ProtoVersion)}})
			ev.c.conn.Close()
			return
		}
		if tok := st.co.opts.Token; tok != "" &&
			subtle.ConstantTimeCompare([]byte(ev.f.Hello.Token), []byte(tok)) != 1 {
			st.logf("dispatch: refusing worker %s: bad or missing auth token", ev.f.Hello.Worker)
			st.send(ev.c, Frame{Type: FrameFail, Fail: &Fail{
				Reason: "authentication failed: bad or missing token"}})
			ev.c.conn.Close()
			return
		}
		ev.c.id = ev.f.Hello.Worker
		st.workers[ev.c] = true
		st.send(ev.c, Frame{Type: FrameJob, Job: &Job{
			Spec: st.co.job, Cells: len(st.co.cells), LeaseTimeout: st.co.opts.LeaseTimeout}})
	case FrameWant:
		if !st.known(ev.c) {
			return
		}
		st.grant(ev.c)
	case FrameResult:
		if !st.known(ev.c) {
			return
		}
		st.result(ev.c, *ev.f.Result)
	case FrameHeartbeat:
		// lastSeen already refreshed above.
	case FrameFail:
		st.logf("dispatch: worker %s failed: %s", ev.c.id, ev.f.Fail.Reason)
		st.dropWorker(ev.c, ev.f.Fail.Reason)
	default:
		// A worker must not send coordinator-only frames.
		st.dropWorker(ev.c, fmt.Sprintf("protocol violation: unexpected %q frame", ev.f.Type))
	}
}

// known filters frames from connections that never completed the
// handshake (or were already dropped).
func (st *coordState) known(wc *workerConn) bool { return st.workers[wc] && !wc.dead }

// send writes one frame to a worker, under a short deadline so a wedged
// peer cannot stall the whole coordinator; a write failure drops the
// worker through the usual revocation path.
func (st *coordState) send(wc *workerConn, f Frame) bool {
	wc.conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //metalint:allow wallclock write deadline guards against a wedged host process
	if err := WriteFrame(wc.conn, f); err != nil {
		st.dropWorker(wc, "write failed")
		return false
	}
	return true
}

// grant answers a want: lease the next cell from the worker's shard
// (stealing a shard first if it has none), or park the want until
// revocation frees work.
func (st *coordState) grant(wc *workerConn) {
	cell, ok := st.take(wc)
	if !ok {
		if !wc.parked {
			wc.parked = true
			st.parked = append(st.parked, wc)
		}
		return
	}
	wc.leased = append(wc.leased, cell)
	st.send(wc, Frame{Type: FrameLease, Lease: &Lease{Cells: []int{cell}}})
}

// take pops the next cell for the worker: the head of its own shard, or
// — when that is empty — after stealing half the tail of the largest
// remaining shard.
func (st *coordState) take(wc *workerConn) (int, bool) {
	if wc.shard == nil {
		wc.shard = &shard{}
		st.shards = append(st.shards, wc.shard)
	}
	if len(wc.shard.cells) == 0 {
		victim := st.largestShard(wc.shard)
		if victim == nil {
			return 0, false
		}
		k := (len(victim.cells) + 1) / 2
		stolen := victim.cells[len(victim.cells)-k:]
		wc.shard.cells = append(wc.shard.cells, stolen...)
		victim.cells = victim.cells[:len(victim.cells)-k]
		st.logf("dispatch: worker %s stole %d cells", wc.id, k)
	}
	cell := wc.shard.cells[0]
	wc.shard.cells = wc.shard.cells[1:]
	return cell, true
}

// largestShard returns the non-empty shard with the most cells,
// excluding the asker's own; ties break to the earliest-created shard,
// keeping the choice deterministic for a given shard history.
func (st *coordState) largestShard(own *shard) *shard {
	var best *shard
	for _, s := range st.shards {
		if s == own || len(s.cells) == 0 {
			continue
		}
		if best == nil || len(s.cells) > len(best.cells) {
			best = s
		}
	}
	return best
}

// result settles or retries one reported cell.
func (st *coordState) result(wc *workerConn, r Result) {
	// Clear the lease (a late result after revocation has none).
	for i, c := range wc.leased {
		if c == r.Cell {
			wc.leased = append(wc.leased[:i], wc.leased[i+1:]...)
			break
		}
	}
	if _, ok := st.settled[r.Cell]; ok {
		return // duplicate (cell re-ran elsewhere after a revocation race)
	}
	cs := st.state(r.Cell)
	cs.attempts++
	if r.Err == "" {
		st.settle(r.Cell, Settled{Payload: r.Payload, Errs: cs.errs, Attempts: cs.attempts})
		return
	}
	cs.errs = append(cs.errs, r.Err)
	st.retryOrFail(wc.shard, r.Cell, cs)
}

// retryOrFail requeues a failed cell (paced by the retry backoff, still
// stealable once released) while budget remains, else settles it as a
// failure joining every attempt's error.
func (st *coordState) retryOrFail(home *shard, cell int, cs *cellState) {
	if cs.attempts < st.co.opts.MaxLeases {
		st.requeue(home, cell, cs)
		return
	}
	st.settle(cell, Settled{Err: strings.Join(cs.errs, "\n"), Errs: cs.errs, Attempts: cs.attempts})
}

// requeue makes a cell leasable again — immediately at the head of its
// home shard, or via the cooling queue when a retry backoff is
// configured.
func (st *coordState) requeue(home *shard, cell int, cs *cellState) {
	cs.requeues++
	if home == nil {
		home = st.anyShard()
	}
	if bo := st.co.opts.RetryBackoff; bo != nil {
		// First requeue is attempt 2 of the cell, matching the runner's
		// Policy.Backoff numbering.
		if d := bo(cs.requeues + 1); d > 0 {
			st.cooling = append(st.cooling, cooled{
				cell: cell, home: home,
				ready: time.Now().Add(d), //metalint:allow wallclock retry-backoff pacing of host re-leases, not simulated time
			})
			return
		}
	}
	home.cells = append([]int{cell}, home.cells...)
	st.serveParked()
}

// nextCool reports how long until the earliest cooling cell is ready.
func (st *coordState) nextCool() (time.Duration, bool) {
	if len(st.cooling) == 0 {
		return 0, false
	}
	min := st.cooling[0].ready
	for _, c := range st.cooling[1:] {
		if c.ready.Before(min) {
			min = c.ready
		}
	}
	return time.Until(min), true //metalint:allow wallclock retry-backoff pacing of host re-leases, not simulated time
}

// releaseCooled moves every cooled cell whose backoff elapsed back to
// the head of its home shard and serves parked wants.
func (st *coordState) releaseCooled() {
	if len(st.cooling) == 0 {
		return
	}
	now := time.Now() //metalint:allow wallclock retry-backoff pacing of host re-leases, not simulated time
	kept := st.cooling[:0]
	released := false
	for _, c := range st.cooling {
		if now.Before(c.ready) {
			kept = append(kept, c)
			continue
		}
		if _, ok := st.settled[c.cell]; ok {
			continue // a late duplicate result settled it while cooling
		}
		c.home.cells = append([]int{c.cell}, c.home.cells...)
		released = true
	}
	st.cooling = kept
	if released {
		st.serveParked()
	}
}

// anyShard returns a shard to requeue into when the natural home is
// unknown (every coordinator has at least the seed shard).
func (st *coordState) anyShard() *shard { return st.shards[0] }

func (st *coordState) state(cell int) *cellState {
	cs := st.states[cell]
	if cs == nil {
		cs = &cellState{}
		st.states[cell] = cs
	}
	return cs
}

// settle records a final outcome and notifies the caller.
func (st *coordState) settle(cell int, s Settled) {
	st.settled[cell] = s
	if st.co.opts.OnSettled != nil {
		st.co.opts.OnSettled(cell, s)
	}
}

// dropWorker declares a worker dead: its connection closes, its parked
// want is forgotten, and every cell it held is revoked — each
// revocation consumes one attempt (recorded as DisconnectErr) and the
// cell requeues at the head of the dead worker's shard, where surviving
// workers steal it.
func (st *coordState) dropWorker(wc *workerConn, why string) {
	if wc.dead || !st.workers[wc] {
		wc.conn.Close()
		return
	}
	wc.dead = true
	delete(st.workers, wc)
	wc.conn.Close()
	if wc.parked {
		for i, p := range st.parked {
			if p == wc {
				st.parked = append(st.parked[:i], st.parked[i+1:]...)
				break
			}
		}
		wc.parked = false
	}
	if len(wc.leased) > 0 {
		st.logf("dispatch: worker %s died (%s); revoking %d leased cell(s)", wc.id, why, len(wc.leased))
	}
	for _, cell := range wc.leased {
		if _, ok := st.settled[cell]; ok {
			continue
		}
		cs := st.state(cell)
		if cs.revives < st.co.opts.Revive {
			// Supervised mode: the host died, not the cell. Re-deal
			// without touching the attempt budget — the supervisor will
			// have a replacement worker up shortly.
			cs.revives++
			st.requeue(wc.shard, cell, cs)
			continue
		}
		cs.attempts++
		cs.errs = append(cs.errs, DisconnectErr)
		st.retryOrFail(wc.shard, cell, cs)
	}
	wc.leased = nil
	st.serveParked()
}

// serveParked grants queued wants (FIFO) while work is available.
func (st *coordState) serveParked() {
	for len(st.parked) > 0 {
		wc := st.parked[0]
		cell, ok := st.take(wc)
		if !ok {
			return
		}
		st.parked = st.parked[1:]
		wc.parked = false
		wc.leased = append(wc.leased, cell)
		st.send(wc, Frame{Type: FrameLease, Lease: &Lease{Cells: []int{cell}}})
	}
}

// reapSilent revokes the leases of workers that stopped heartbeating.
func (st *coordState) reapSilent() {
	now := time.Now() //metalint:allow wallclock liveness bookkeeping for host worker processes
	var silent []*workerConn
	for wc := range st.workers { //metalint:allow maporder drop order does not affect any result: revoked cells requeue into per-worker shards
		if now.Sub(wc.lastSeen) > st.co.opts.LeaseTimeout {
			silent = append(silent, wc)
		}
	}
	for _, wc := range silent {
		st.dropWorker(wc, "heartbeat timeout")
	}
}

// shutdown drains every surviving worker and closes the connections.
func (st *coordState) shutdown() {
	for wc := range st.workers { // drain order is invisible: every worker gets the same frame
		wc.conn.SetWriteDeadline(time.Now().Add(time.Second)) //metalint:allow wallclock write deadline guards against a wedged host process
		WriteFrame(wc.conn, Frame{Type: FrameDrain})
		wc.conn.Close()
	}
}
