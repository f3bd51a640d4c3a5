package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// A serve thread owns the Request its handler receives. These tests
// hold a *Request past the point where the thread or queue that
// produced it is gone, and check it still reads and replies correctly.

// TestForkedThreadRepliesAfterHandlerReturns hands each request to a
// forked thread and returns from the handler at once; the forked
// thread replies later, after its parent has died and its carrier has
// run other threads.
func TestForkedThreadRepliesAfterHandlerReturns(t *testing.T) {
	r := newRig()
	const n = 4
	replies := make([]string, n)
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			done := 0
			for i := 0; i < n; i++ {
				i := i
				th.Fork(fmt.Sprintf("c%d", i), func(ct *core.Thread) {
					defer func() { done++ }()
					la, lb, err := ct.NewLink()
					if err != nil {
						t.Errorf("NewLink: %v", err)
						return
					}
					_ = la
					reply, err := ct.Connect(e, fmt.Sprintf("op%d", i), core.Msg{Data: []byte{byte(i)}, Links: []*core.End{lb}})
					if err != nil {
						t.Errorf("Connect %d: %v", i, err)
						return
					}
					replies[i] = fmt.Sprintf("%s:%v", reply.Op(), reply.Data)
				})
			}
			for done < n {
				th.Sleep(sim.Millisecond)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Fork("later", func(ft *core.Thread) {
					// Stagger the replies so they go out in reverse order.
					ft.Sleep(sim.Duration(n-int(req.Data()[0])) * sim.Millisecond)
					if len(req.Links()) != 1 || req.Links()[0].Dead() {
						t.Errorf("%s: links %v", req.Op(), req.Links())
					} else if err := ft.Destroy(req.Links()[0]); err != nil {
						t.Errorf("%s: destroy enclosed end: %v", req.Op(), err)
					}
					if err := ft.Reply(req, core.Msg{Data: []byte{req.Data()[0] * 10}}); err != nil {
						t.Errorf("%s: Reply: %v", req.Op(), err)
					}
				})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range replies {
		if want := fmt.Sprintf("op%d:[%d]", i, i*10); got != want {
			t.Errorf("reply %d = %q, want %q", i, got, want)
		}
	}
}

// TestQueuedRequestsReceivedLater queues several requests, some with
// enclosures, on an explicitly opened end, then Receives and replies
// to each after they have all arrived.
func TestQueuedRequestsReceivedLater(t *testing.T) {
	r := newRig()
	const n = 3
	replies := make([]string, n)
	var ops []string
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			done := 0
			for i := 0; i < n; i++ {
				i := i
				th.Fork(fmt.Sprintf("c%d", i), func(ct *core.Thread) {
					defer func() { done++ }()
					var links []*core.End
					if i%2 == 0 {
						_, lb, err := ct.NewLink()
						if err != nil {
							t.Errorf("NewLink: %v", err)
							return
						}
						links = []*core.End{lb}
					}
					reply, err := ct.Connect(e, fmt.Sprintf("q%d", i), core.Msg{Data: []byte{byte(i)}, Links: links})
					if err != nil {
						t.Errorf("Connect %d: %v", i, err)
						return
					}
					replies[i] = fmt.Sprintf("%s:%v", reply.Op(), reply.Data)
				})
			}
			for done < n {
				th.Sleep(sim.Millisecond)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.OpenRequests(e)
			th.Sleep(30 * sim.Millisecond) // every request arrives and queues
			for i := 0; i < n; i++ {
				req, err := th.Receive(e)
				if err != nil {
					t.Errorf("Receive %d: %v", i, err)
					return
				}
				ops = append(ops, req.Op())
				want := 0
				if req.Data()[0]%2 == 0 {
					want = 1
				}
				if len(req.Links()) != want {
					t.Errorf("%s: %d links, want %d", req.Op(), len(req.Links()), want)
				}
				for _, l := range req.Links() {
					if err := th.Destroy(l); err != nil {
						t.Errorf("%s: destroy enclosed end: %v", req.Op(), err)
					}
				}
				if err := th.Reply(req, core.Msg{Data: []byte{req.Data()[0] + 100}}); err != nil {
					t.Errorf("%s: Reply: %v", req.Op(), err)
				}
			}
			th.CloseRequests(e)
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ops) != "[q0 q1 q2]" {
		t.Errorf("received %v, want [q0 q1 q2]", ops)
	}
	for i, got := range replies {
		if want := fmt.Sprintf("q%d:[%d]", i, i+100); got != want {
			t.Errorf("reply %d = %q, want %q", i, got, want)
		}
	}
}
