package dispatch

import "sync"

// holdAfterSettle makes Coordinator.Run, once its grid settles, call join
// and then wait until a hello frame from worker id is queued before it
// drains its queued events, so a test can force the handshake-after-settle
// order without sleeps. The wait also ends when the channel join returns
// closes (the late worker gave up before its hello was queued). The
// returned func removes the hooks; call it after Run returns.
func holdAfterSettle(id string, join func() <-chan struct{}) (restore func()) {
	queued := make(chan struct{})
	var once sync.Once
	frameQueued = func(f Frame) {
		if f.Type == FrameHello && f.Hello.Worker == id {
			once.Do(func() { close(queued) })
		}
	}
	gridSettled = func() {
		gone := join()
		select {
		case <-queued:
		case <-gone:
		}
	}
	return func() { frameQueued, gridSettled = nil, nil }
}
