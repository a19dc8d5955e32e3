package sim

import (
	"errors"
	"strings"
	"testing"
)

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// A panic in a process body surfaces from Run with its original value
// and leaves the Sim out of its running state.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	s := New()
	s.Go("bad", func(p *Proc) {
		p.Sleep(Ns(1))
		panic(boom)
	})
	if r := recovered(func() { _ = s.Run() }); r != boom {
		t.Fatalf("Run panicked with %v, want %v", r, boom)
	}
	if s.running {
		t.Fatal("running still set after a panic unwound Run")
	}
}

// The callback below is the first event after the sleeper parks, so
// the sleeper's own coroutine fires it while draining the queue; its
// panic must still surface from Run and RunUntil with its original
// value.
func TestDrainedCallbackPanicSurfaces(t *testing.T) {
	boom := errors.New("boom")
	for name, run := range map[string]func(s *Sim){
		"Run":      func(s *Sim) { _ = s.Run() },
		"RunUntil": func(s *Sim) { s.RunUntil(Time(Us(1))) },
	} {
		s := New()
		s.Go("sleeper", func(p *Proc) {
			s.After(Ns(5), "bad", func() { panic(boom) })
			p.Sleep(Ns(10))
		})
		if r := recovered(func() { run(s) }); r != boom {
			t.Fatalf("%s panicked with %v, want %v", name, r, boom)
		}
		if s.running {
			t.Fatalf("%s: running still set after a panic", name)
		}
	}
}

// A panic in a process resumed by Step surfaces from Step.
func TestStepPanic(t *testing.T) {
	boom := errors.New("boom")
	s := New()
	s.Go("bad", func(p *Proc) { panic(boom) })
	if r := recovered(func() { s.Step() }); r != boom {
		t.Fatalf("Step panicked with %v, want %v", r, boom)
	}
}

// A wake scheduled for one spawn must not resume the next spawn that
// reuses the pooled process: it panics instead.
func TestStaleResumeOfRecycledProcPanics(t *testing.T) {
	s := New()
	first := s.Go("first", func(p *Proc) {})
	s.ResumeAfter(Ns(5), "stale", first)
	if !s.Step() {
		t.Fatal("no start event")
	}
	second := s.Go("second", func(p *Proc) { p.Sleep(Ns(10)) })
	if second != first {
		t.Fatal("the finished process was not reused")
	}
	r := recovered(func() { _ = s.Run() })
	if msg, _ := r.(string); !strings.Contains(msg, "stale resume") {
		t.Fatalf("Run panicked with %v, want a stale resume", r)
	}
}

// Step fires exactly one event, even when that event is the wake of the
// process that has just parked: it must not run on into the next wake.
func TestStepFiresOneEventOnSelfWake(t *testing.T) {
	s := New()
	var marks []Time
	s.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			marks = append(marks, p.Now())
			p.Sleep(Ns(1))
		}
	})
	for i := 1; i <= 4; i++ {
		if !s.Step() {
			t.Fatalf("step %d: no event", i)
		}
		if want := min(i, 3); len(marks) != want {
			t.Fatalf("step %d: process ran %d times, want %d", i, len(marks), want)
		}
		if want := Time(Ns(int64(i - 1))); s.Now() != want {
			t.Fatalf("step %d: now %v, want %v", i, s.Now(), want)
		}
	}
	if s.Step() {
		t.Fatal("event left after the process finished")
	}
}

// Events a Stop leaves behind in RunUntil, including ones at the
// current time, still fire in (at, seq) order once the run resumes, and
// the clock never runs backwards: a stopped RunUntil leaves it at the
// stopping event while events due by the deadline are still queued.
func TestRunUntilStopKeepsOrder(t *testing.T) {
	s := New()
	var order []string
	last := Time(0)
	note := func(name string) func() {
		return func() {
			if s.Now() < last {
				t.Errorf("%s fired at %v, after the clock read %v", name, s.Now(), last)
			}
			last = s.Now()
			order = append(order, name)
		}
	}
	s.At(0, "a", func() { note("a")(); s.Stop() })
	s.At(Time(Ns(10)), "d", note("d"))
	s.At(0, "b", note("b"))
	s.At(0, "c", note("c"))
	s.RunUntil(Time(Ns(5)))
	if len(order) != 1 {
		t.Fatalf("RunUntil ran %v past the Stop", order)
	}
	if s.Now() != 0 {
		t.Fatalf("now %v after the stopped RunUntil, want 0 (b and c are still due)", s.Now())
	}
	last = s.Now()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcd" {
		t.Fatalf("order %q, want abcd", got)
	}
	if want := Time(Ns(10)); s.Now() != want {
		t.Fatalf("now %v after Run, want %v", s.Now(), want)
	}
}

// A stopped RunUntil still advances to the deadline when nothing at or
// before it is left: cancelled events and events past the deadline do
// not hold the clock back.
func TestRunUntilStopAdvancesWhenNothingDue(t *testing.T) {
	s := New()
	s.At(Time(Ns(1)), "stop", s.Stop)
	s.At(Time(Ns(2)), "cancelled", func() { t.Error("cancelled event fired") }).Cancel()
	s.At(Time(Ns(10)), "later", func() {})
	s.RunUntil(Time(Ns(5)))
	if want := Time(Ns(5)); s.Now() != want {
		t.Fatalf("now %v, want %v", s.Now(), want)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
}
