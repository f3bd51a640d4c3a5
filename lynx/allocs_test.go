package lynx_test

import (
	"fmt"
	"testing"

	"repro/lynx"
)

// rpcAllocBudget is the steady-state heap allocations one echo RPC may
// cost, per substrate and payload: the count measured when the budget
// was set plus 0.5. An RPC is a Connect, the served request, its Reply,
// and everything the binding, kernel model and engine do to carry
// them.
var rpcAllocBudget = map[lynx.Substrate][2]float64{ // {0 B, 1000 B}
	lynx.Ideal:     {8.5, 8.5},
	lynx.Charlotte: {25.5, 25.5},
	lynx.SODA:      {29.5, 29.5},
	lynx.Chrysalis: {16.5, 16.5},
}

// echoSystem runs a System in which one client makes n echo RPCs of
// payload bytes to a serving process.
func echoSystem(tb testing.TB, sub lynx.Substrate, payload, n int) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	data := make([]byte, payload)
	c := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
		for i := 0; i < n; i++ {
			if _, err := t.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
				tb.Error(err)
				return
			}
		}
		t.Destroy(boot[0])
	})
	s := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
		t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{Data: req.Data()})
		})
	})
	sys.Join(c, s)
	if err := sys.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestRPCAllocBudget pins the steady-state allocations per RPC on every
// substrate. It measures the malloc slope between an n-RPC System and a
// 2n-RPC one, so System setup and teardown cancel out, and fails if an
// RPC costs more than its budget.
func TestRPCAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 200
	for _, sub := range []lynx.Substrate{lynx.Ideal, lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		for i, payload := range []int{0, 1000} {
			t.Run(fmt.Sprintf("%v/%dB", sub, payload), func(t *testing.T) {
				short := testing.AllocsPerRun(3, func() { echoSystem(t, sub, payload, n) })
				long := testing.AllocsPerRun(3, func() { echoSystem(t, sub, payload, 2*n) })
				perRPC := (long - short) / n
				budget := rpcAllocBudget[sub][i]
				t.Logf("%.2f allocs/RPC (budget %.1f)", perRPC, budget)
				if perRPC > budget {
					t.Errorf("%v %d B echo: %.2f allocs per RPC, budget %.1f", sub, payload, perRPC, budget)
				}
			})
		}
	}
}
