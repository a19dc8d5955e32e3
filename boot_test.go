package fpgavirtio

import (
	"runtime"
	"testing"
)

// bootHeapBudget bounds the Go heap one session boot may allocate on
// top of its host memory. The host memory is one make of hostMemBytes;
// everything else (rings, queues, instruments, the flight ring) is
// small. Host regions are cleared only where they were written and dump
// slots are allocated on first use, so neither shows up here.
const bootHeapBudget = 1 << 20

// bootHeap reports the fewest bytes of Go heap one of a few calls to
// open allocated (the minimum discounts allocations by the runtime or
// other goroutines that land inside a measurement).
func bootHeap(t *testing.T, open func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		if err := open(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

func TestBootHeapBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() error
	}{
		{"OpenNet", func() error {
			_, err := OpenNet(NetConfig{Config: Config{Seed: 1}})
			return err
		}},
		{"OpenXDMA", func() error {
			_, err := OpenXDMA(XDMAConfig{Config: Config{Seed: 1}})
			return err
		}},
	} {
		got := bootHeap(t, tc.open)
		t.Logf("%s: %d B of Go heap, %d B beyond host memory", tc.name, got, int64(got)-hostMemBytes)
		if got > hostMemBytes+bootHeapBudget {
			t.Errorf("%s allocates %.2f MiB of Go heap beyond its %d MiB of host memory, budget is %.2f MiB",
				tc.name, float64(got-hostMemBytes)/(1<<20), hostMemBytes>>20, float64(bootHeapBudget)/(1<<20))
		}
	}
}
