package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// linkOrder checks that every sender's adverts (numbered by Demand, from 0)
// arrive in the order they were sent; links may interleave.
type linkOrder map[NodeID]float64

func (next linkOrder) check(t *testing.T, env protocol.Envelope) {
	t.Helper()
	if got := env.Msg.(protocol.DemandAdvert).Demand; got != next[env.From] {
		t.Fatalf("link %v->%v: message %v arrived where %v was due", env.From, env.To, got, next[env.From])
	}
	next[env.From]++
}

// A directed link keeps order under a delay: 1,000 envelopes sent back to
// back on each of two links into one endpoint arrive in send order per link
// (the two links may interleave), with a constant delay and with jitter —
// where every message draws its own delay and a later one often draws less.
func TestMemoryDelayedOrderedDelivery(t *testing.T) {
	const perLink = 1000
	for _, tc := range []struct {
		name string
		cfg  MemoryConfig
	}{
		{"latency", MemoryConfig{Latency: 2 * time.Millisecond}},
		{"jitter", MemoryConfig{Latency: time.Millisecond, Jitter: 3 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Buffer = 2 * perLink
			net := NewMemory(tc.cfg)
			defer net.Close()
			a, b, c := net.Attach(0), net.Attach(1), net.Attach(2)
			for i := 0; i < perLink; i++ {
				if err := a.Send(advert(0, 2, float64(i))); err != nil {
					t.Fatal(err)
				}
				if err := b.Send(advert(1, 2, float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			order := linkOrder{}
			for i := 0; i < 2*perLink; i++ {
				order.check(t, recvOne(t, c))
			}
		})
	}
}

// Dropping the latency to zero does not let the next message overtake what
// is still in flight on its link — and holds back no other link.
func TestMemoryZeroDelayQueuesBehindInFlight(t *testing.T) {
	const latency = 20 * time.Millisecond
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	a, b, c := net.Attach(0), net.Attach(1), net.Attach(2)
	net.SetLatency(latency, 0)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := a.Send(advert(0, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	net.SetLatency(0, 0)
	if err := a.Send(advert(0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	// Link 2->1 is idle: its zero-delay message is handed over inside Send,
	// ahead of link 0->1's backlog (unless the host stalled this test past
	// the backlog's delivery time, when nothing can be said).
	if err := c.Send(advert(2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	order := linkOrder{}
	select {
	case env := <-b.Recv():
		if time.Since(start) < latency && env.From != 2 {
			t.Fatalf("got %v before the idle link's message", env)
		}
		order.check(t, env)
	default:
		t.Fatal("zero-delay send on an idle link was not delivered synchronously")
	}
	for i := 0; i < 4; i++ {
		order.check(t, recvOne(t, b))
	}
}

// waitGoroutines waits for the goroutine count to fall back to base (a
// finished callback is counted until its goroutine has fully exited).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// Close with messages in flight discards them and leaves nothing behind: an
// armed timer would keep Close waiting out the hour-long delay, and a
// callback racing Close must have returned before Close does.
func TestMemoryCloseWithMessagesInFlight(t *testing.T) {
	base := runtime.NumGoroutine()

	parked := NewMemory(MemoryConfig{Latency: time.Hour})
	eps := []Endpoint{parked.Attach(0), parked.Attach(1), parked.Attach(2)}
	for i := 0; i < 100; i++ {
		for to := NodeID(0); to < 3; to++ {
			if err := eps[(int(to)+1)%3].Send(advert(0, to, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := parked.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(advert(0, 1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close err = %v, want ErrClosed", err)
	}
	waitGoroutines(t, base)

	// Callbacks firing while Close runs: senders keep the timers busy on
	// 50 µs links until the hub refuses them.
	busy := NewMemory(MemoryConfig{Latency: 50 * time.Microsecond, Jitter: 50 * time.Microsecond})
	var senders sync.WaitGroup
	started := make(chan struct{}, 4)
	for s := NodeID(0); s < 4; s++ {
		ep := busy.Attach(s)
		senders.Add(1)
		go func(from NodeID) {
			defer senders.Done()
			for i := 0; ; i++ {
				if err := ep.Send(advert(from, (from+1)%4, float64(i))); errors.Is(err, ErrClosed) {
					return
				}
				if i == 200 {
					started <- struct{}{}
				}
			}
		}(s)
	}
	for s := 0; s < 4; s++ {
		<-started
	}
	if err := busy.Close(); err != nil {
		t.Fatal(err)
	}
	senders.Wait()
	waitGoroutines(t, base)
}
