package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// borrow runs fn on a carrier resumed from inside proc p, the way a
// LYNX thread runs on its process's simproc. fn may park p; Resume
// returns once fn has returned.
func borrow(p *Proc, fn func()) {
	c := p.Env().Carrier(fn)
	if !c.Resume() {
		panic("borrowed carrier suspended itself")
	}
	p.Env().Recycle(c)
}

// A kill that lands while a borrowing carrier has the proc parked in
// Delay unwinds the borrower, re-raises in the proc's own carrier, and
// runs the OnKill hooks exactly once.
func TestCarrierKillBorrowedDelay(t *testing.T) {
	e := NewEnv(1)
	hooks, borrowerUnwound := 0, 0
	victim := e.Spawn("victim", func(p *Proc) {
		p.OnKill(func() { hooks++ })
		c := e.Carrier(func() {
			defer func() {
				r := recover()
				if !IsKilled(r) {
					t.Errorf("borrower recovered %v, want the kill signal", r)
				}
				borrowerUnwound++
				panic(r)
			}()
			p.Delay(Second)
			t.Error("borrower ran past the kill")
		})
		c.Resume()
		t.Error("proc body continued past a killed borrower")
	})
	e.Spawn("killer", func(p *Proc) {
		p.Delay(Millisecond)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hooks != 1 || borrowerUnwound != 1 {
		t.Fatalf("OnKill hooks ran %d times, borrower unwound %d times; want 1 and 1", hooks, borrowerUnwound)
	}
	if !victim.Done() || e.Now() != Time(Millisecond) {
		t.Fatalf("victim done=%v at %v; want done at 1ms", victim.Done(), e.Now())
	}
}

// A proc killed before its first dispatch never enters its body, but
// its OnKill hooks still run.
func TestCarrierKillBeforeFirstRun(t *testing.T) {
	e := NewEnv(1)
	entered, hooks := false, 0
	e.Spawn("owner", func(p *Proc) {
		helper := p.Env().Spawn("helper", func(*Proc) { entered = true })
		helper.OnKill(func() { hooks++ })
		helper.Kill()
	})
	early := e.Spawn("early", func(*Proc) { entered = true })
	early.Kill()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if entered || hooks != 1 || !early.Done() {
		t.Fatalf("entered=%v hooks=%d early.Done=%v; want false, 1, true", entered, hooks, early.Done())
	}
}

// runSystem is a small complete run in the shape of a LYNX System: a
// dispatcher proc resuming borrowed carriers that park it, a peer proc
// exchanging wakeups with it, and a proc killed mid-run.
func runSystem(seed uint64) (Time, error) {
	e := NewEnv(seed)
	mb := NewMailbox(e, "mb")
	e.Spawn("dispatcher", func(p *Proc) {
		for i := 0; i < 3; i++ {
			borrow(p, func() {
				p.Delay(Duration(1 + p.Env().Rand().Intn(5)))
				mb.Get(p)
			})
		}
	})
	e.Spawn("peer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(Duration(1 + p.Env().Rand().Intn(5)))
			mb.Put(i)
		}
	})
	sleeper := e.Spawn("sleeper", func(p *Proc) { p.Delay(Second) })
	sleeper.KillAt(Time(3))
	err := e.Run()
	return e.Now(), err
}

// Completed runs hand every carrier back: idle ones wait in the pool,
// surplus ones are stopped, so the goroutine count stays bounded by
// the pool's cap however many runs go by.
func TestCarrierPoolBoundsGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	// One run wider than the pool: its carriers outnumber the free
	// slots when they come back.
	wide := NewEnv(1)
	for i := 0; i < 2*CarrierPoolCap; i++ {
		wide.Spawn("w", func(p *Proc) { p.Delay(Microsecond) })
	}
	if err := wide.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := runSystem(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > start+CarrierPoolCap {
		t.Fatalf("%d goroutines after 2000 runs, started with %d; pool cap %d", n, start, CarrierPoolCap)
	}
}

// Envs on separate goroutines share the carrier pool; each still gets
// its own deterministic result (run under -race in CI).
func TestCarrierPoolConcurrentEnvs(t *testing.T) {
	const runs = 200
	want := make([]string, runs)
	for i := range want {
		at, err := runSystem(uint64(i))
		want[i] = fmt.Sprint(at, err)
	}
	var wg sync.WaitGroup
	got := make([][]string, 2)
	for g := range got {
		got[g] = make([]string, runs)
		wg.Add(1)
		go func(out []string) {
			defer wg.Done()
			for i := range out {
				at, err := runSystem(uint64(i))
				out[i] = fmt.Sprint(at, err)
			}
		}(got[g])
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("env goroutine %d run %d: %s, want %s", g, i, got[g][i], want[i])
			}
		}
	}
}
