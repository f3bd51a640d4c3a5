package lynx_test

import (
	"fmt"
	"runtime"
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
// payload bytes to a serving process, and returns it after the run.
func echoSystem(tb testing.TB, sub lynx.Substrate, payload, n int) *lynx.System {
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
	return sys
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

// rpcResumes is the exact number of coroutine carrier resumes one echo
// RPC costs in steady state, per substrate and payload: simproc resumes
// by the scheduler plus thread resumes by a process's dispatcher. Every
// substrate spends rpcThreadResumes of them on threads.
var rpcResumes = map[lynx.Substrate][2]int64{ // {0 B, 1000 B}
	lynx.Ideal:     {9, 9},
	lynx.Charlotte: {19, 21},
	lynx.SODA:      {5, 5},
	lynx.Chrysalis: {27, 29},
}

const rpcThreadResumes = 3

// TestRPCSwitchBudget pins the carrier resumes per RPC on every
// substrate, by the slope method of TestRPCAllocBudget. Resume counts
// are deterministic, so they are pinned exactly: a change that adds or
// removes a coroutine switch on the RPC path must update the table.
func TestRPCSwitchBudget(t *testing.T) {
	const n = 200
	for _, sub := range []lynx.Substrate{lynx.Ideal, lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		for i, payload := range []int{0, 1000} {
			t.Run(fmt.Sprintf("%v/%dB", sub, payload), func(t *testing.T) {
				short := echoSystem(t, sub, payload, n).Env().Resumes()
				long := echoSystem(t, sub, payload, 2*n).Env().Resumes()
				procs, threads := long.Procs-short.Procs, long.Threads-short.Threads
				if procs%n != 0 || threads%n != 0 {
					t.Fatalf("resumes over %d RPCs (%d procs, %d threads) are not a whole number per RPC", n, procs, threads)
				}
				got := (procs + threads) / n
				t.Logf("%d resumes/RPC (%d thread)", got, threads/n)
				if want := rpcResumes[sub][i]; got != want || threads/n != rpcThreadResumes {
					t.Errorf("%v %d B echo: %d resumes per RPC (%d thread), want %d (%d thread)",
						sub, payload, got, threads/n, want, rpcThreadResumes)
				}
			})
		}
	}
}

// pairBytesBudget bounds the heap bytes one disjoint echo pair costs in
// a partitioned System, setup and teardown included: about 8 KB on
// Ideal. Timer chunks of a fixed 256 timers took it to 24 KB, most of it
// timers a one-RPC shard never used.
const pairBytesBudget = 12 << 10

// TestPartitionedSystemBytes runs a System of 40 disjoint one-RPC echo
// pairs — 40 shards — and bounds the bytes it allocates per pair.
func TestPartitionedSystemBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const pairs = 40
	best := ^uint64(0)
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Ideal, Seed: 1})
		for i := 0; i < pairs; i++ {
			c := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
				t.Connect(boot[0], "echo", lynx.Msg{})
				t.Destroy(boot[0])
			})
			s := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
				t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: req.Data()})
				})
			})
			sys.Join(c, s)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !sys.Partitioned() {
			t.Fatal("a System of disjoint pairs must run partitioned")
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	perPair := best / pairs
	t.Logf("%d bytes per pair (budget %d)", perPair, pairBytesBudget)
	if perPair > pairBytesBudget {
		t.Errorf("partitioned System of %d pairs: %d bytes per pair, budget %d", pairs, perPair, pairBytesBudget)
	}
}
