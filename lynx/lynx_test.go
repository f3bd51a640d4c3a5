package lynx_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/lynx"
)

// allSubstrates runs a subtest per substrate.
func allSubstrates(t *testing.T, f func(t *testing.T, sub lynx.Substrate)) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis, lynx.Ideal} {
		sub := sub
		t.Run(sub.String(), func(t *testing.T) { f(t, sub) })
	}
}

func TestEchoAcrossAllSubstrates(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 7})
		var got string
		client := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
			reply, err := th.Connect(boot[0], "echo", lynx.Msg{Data: []byte("hello")})
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			got = string(reply.Data)
			th.Destroy(boot[0])
		})
		server := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(client, server)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if got != "hello" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestLinkMotionAcrossAllSubstrates(t *testing.T) {
	// The figure-1 shape: a link end created at A ends up at B via an
	// enclosure, and RPC over the moved link works.
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 11})
		ok := false
		a := sys.Spawn("a", func(th *lynx.Thread, boot []*lynx.End) {
			mine, theirs, err := th.NewLink()
			if err != nil {
				t.Errorf("NewLink: %v", err)
				return
			}
			if _, err := th.Connect(boot[0], "take", lynx.Msg{Links: []*lynx.End{theirs}}); err != nil {
				t.Errorf("move: %v", err)
				return
			}
			reply, err := th.Connect(mine, "ping", lynx.Msg{Data: []byte("x")})
			if err != nil {
				t.Errorf("over moved link: %v", err)
				return
			}
			ok = string(reply.Data) == "x!"
			th.Destroy(mine)
			th.Destroy(boot[0])
		})
		b := sys.Spawn("b", func(th *lynx.Thread, boot []*lynx.End) {
			req, err := th.Receive(boot[0])
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			th.Serve(req.Links()[0], func(st *lynx.Thread, r2 *lynx.Request) {
				st.Reply(r2, lynx.Msg{Data: append(r2.Data(), '!')})
			})
			th.Reply(req, lynx.Msg{})
		})
		sys.Join(a, b)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("moved-link RPC failed")
		}
	})
}

func TestLatencyOrdering(t *testing.T) {
	// The paper's headline latency ordering: Chrysalis ≪ SODA < Charlotte
	// for small messages.
	rtt := map[lynx.Substrate]lynx.Duration{}
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 3})
		var d lynx.Duration
		c := sys.Spawn("c", func(th *lynx.Thread, boot []*lynx.End) {
			start := th.Now()
			th.Connect(boot[0], "op", lynx.Msg{})
			d = lynx.Duration(th.Now() - start)
			th.Destroy(boot[0])
		})
		s := sys.Spawn("s", func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{})
			})
		})
		sys.Join(c, s)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		rtt[sub] = d
	}
	if !(rtt[lynx.Chrysalis] < rtt[lynx.SODA] && rtt[lynx.SODA] < rtt[lynx.Charlotte]) {
		t.Fatalf("latency ordering violated: %v", rtt)
	}
	if ratio := float64(rtt[lynx.Charlotte]) / float64(rtt[lynx.Chrysalis]); ratio < 10 {
		t.Fatalf("Charlotte/Chrysalis = %.1fx, want > 10x", ratio)
	}
}

func TestCrashPropagatesAcrossSubstrates(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		sub := sub
		t.Run(sub.String(), func(t *testing.T) {
			sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 5})
			var errA error
			a := sys.Spawn("a", func(th *lynx.Thread, boot []*lynx.End) {
				_, errA = th.Connect(boot[0], "op", lynx.Msg{})
			})
			b := sys.Spawn("b", func(th *lynx.Thread, boot []*lynx.End) {
				th.Sleep(2 * lynx.Millisecond)
				th.Process().Crash()
				th.Sleep(lynx.Millisecond)
			})
			sys.Join(a, b)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(errA, lynx.ErrLinkDestroyed) {
				t.Fatalf("errA = %v", errA)
			}
		})
	}
}

func TestManyProcessRing(t *testing.T) {
	// N processes in a ring forwarding a token message; exercises boot
	// wiring and multi-process scheduling on every substrate.
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		const n = 6
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 9})
		refs := make([]*lynx.ProcRef, n)
		visits := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			refs[i] = sys.Spawn(fmt.Sprint("p", i), func(th *lynx.Thread, boot []*lynx.End) {
				// boot[0] = link to previous, boot[1] = link to next
				// (p0: boot[0] is to p1... wiring below makes it uniform
				// except endpoints' order).
				var prev, next *lynx.End
				if i == 0 {
					next = boot[0]
					prev = boot[1]
					// p0 starts the token.
					if _, err := th.Connect(next, "token", lynx.Msg{Data: []byte{0}}); err != nil {
						t.Errorf("p0 inject: %v", err)
						return
					}
					visits[0]++
					th.Destroy(next)
					return
				}
				prev = boot[0]
				if i < n-1 {
					next = boot[1]
				} else {
					next = boot[1] // link back to p0
				}
				req, err := th.Receive(prev)
				if err != nil {
					t.Errorf("p%d receive: %v", i, err)
					return
				}
				visits[i]++
				th.Reply(req, lynx.Msg{})
				if i < n-1 {
					if _, err := th.Connect(next, "token", lynx.Msg{Data: req.Data()}); err != nil {
						t.Errorf("p%d forward: %v", i, err)
					}
					th.Destroy(next)
				}
			})
		}
		for i := 0; i < n-1; i++ {
			sys.Join(refs[i], refs[i+1])
		}
		sys.Join(refs[n-1], refs[0])
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n-1; i++ {
			if visits[i] == 0 {
				t.Errorf("p%d never visited", i)
			}
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() lynx.Time {
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.SODA, Seed: 42})
		c := sys.Spawn("c", func(th *lynx.Thread, boot []*lynx.End) {
			for i := 0; i < 3; i++ {
				th.Connect(boot[0], "op", lynx.Msg{Data: make([]byte, 100)})
			}
			th.Destroy(boot[0])
		})
		s := sys.Spawn("s", func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(c, s)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRunForHorizon(t *testing.T) {
	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Ideal, Seed: 1})
	a := sys.Spawn("looper", func(th *lynx.Thread, boot []*lynx.End) {
		for {
			if err := th.Sleep(10 * lynx.Millisecond); err != nil {
				return
			}
		}
	})
	_ = a
	if err := sys.RunFor(100 * lynx.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sys.Now() > lynx.Time(101*lynx.Millisecond) {
		t.Fatalf("ran past horizon: %v", sys.Now())
	}
}

// Every Process and thread of a completed System hands its coroutine
// carrier back, so thousands of Systems in a row leave at most the
// carrier pool's idle goroutines behind.
func TestSystemsReturnCarriers(t *testing.T) {
	subs := []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis, lynx.Ideal}
	start := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		sys := lynx.NewSystem(lynx.Config{Substrate: subs[i%len(subs)], Seed: uint64(i)})
		client := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
			for j := 0; j < 3; j++ {
				if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: []byte("x")}); err != nil {
					t.Errorf("Connect: %v", err)
				}
			}
			th.Destroy(boot[0])
		})
		server := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(client, server)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > start+sim.CarrierPoolCap {
		t.Fatalf("%d goroutines after 2000 Systems, started with %d; carrier pool cap %d", n, start, sim.CarrierPoolCap)
	}
}
