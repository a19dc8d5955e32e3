package sim

import "testing"

// The dispatch micro-benchmarks time the sim kernel alone, one event
// per iteration, so a change to process hand-off or to the event queue
// shows up here before it is diluted by the device models. Run them
// with -benchmem: every one must report 0 allocs/op.
//
// Each load builds its closures once and returns the function that
// schedules it, so re-loading a warm Sim allocates nothing of its own.

// selfWake loads one process that sleeps n times: every event is a
// wake of the process that just parked.
func selfWake(s *Sim, n int) func() {
	body := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Nanosecond)
		}
	}
	return func() { s.Go("sleeper", body) }
}

// pingPong loads two processes that wake each other n times each:
// every event resumes the process that did not just park.
func pingPong(s *Sim, n int) func() {
	var ping, pong *Proc
	pingBody := func(p *Proc) {
		for i := 0; i < n; i++ {
			s.ResumeAfter(Nanosecond, "pong", pong)
			p.Park("ping")
		}
	}
	pongBody := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("pong")
			s.ResumeAfter(Nanosecond, "ping", ping)
		}
	}
	return func() {
		ping = s.Go("ping", pingBody)
		pong = s.Go("pong", pongBody)
	}
}

// callbackChain loads n callbacks, each scheduled by the one before
// it: no process runs at all.
func callbackChain(s *Sim, n int) func() {
	left := 0
	var tick func()
	tick = func() {
		if left--; left > 0 {
			s.After(Nanosecond, "tick", tick)
		}
	}
	return func() {
		left = n
		s.After(Nanosecond, "tick", tick)
	}
}

func benchDispatch(b *testing.B, load func(s *Sim, n int) func()) {
	s := New()
	load(s, 64)() // warm the event free-list and the process pool
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	load(s, b.N)()
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSimSelfWake(b *testing.B)      { benchDispatch(b, selfWake) }
func BenchmarkSimPingPong(b *testing.B)      { benchDispatch(b, pingPong) }
func BenchmarkSimCallbackChain(b *testing.B) { benchDispatch(b, callbackChain) }

// TestDispatchZeroAlloc pins the kernel's steady state: once the event
// free-list and the process pool are warm, scheduling, firing, parking,
// resuming and respawning processes allocate nothing.
func TestDispatchZeroAlloc(t *testing.T) {
	s := New()
	loads := []func(){selfWake(s, 32), pingPong(s, 32), callbackChain(s, 32)}
	run := func() {
		for _, load := range loads {
			load()
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f times per run, want 0", got)
	}
}
