package slotsim

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/network"
)

// slotScaleConfig is the slotted d-cube of the end-to-end slot-scale
// workload: τ = 1, horizon 4, ρ = 0.7, uniform traffic, bulk injection. At
// d = 16 its arc arrays, packet pool and completion ring all reach a huge
// page, so they are OS-backed where the platform allows it.
func slotScaleConfig(d int) Config {
	return Config{
		NumArcs:     d << d,
		NumGroups:   d,
		Sources:     1 << d,
		Horizon:     4,
		Seed:        11,
		Lambda:      1.4, // ρ = λ·p with p = 1/2
		Slotted:     true,
		Tau:         1,
		Mode:        RouteHypercubeGreedy,
		Batch:       &uniformBatch{mask: 1<<d - 1},
		Measurement: network.Measurement{SkipGroupPopulation: true},
	}
}

// skipScale skips the tests that run slot-scale kernels where their arrays
// are disproportionate: -short runs and the race detector.
func skipScale(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("slot-scale arrays are disproportionate under the race detector")
	}
	if testing.Short() {
		t.Skip("runs slot-scale kernels")
	}
}

// committedBytes is the committed size of k's OS-backed regions.
func committedBytes(k *Kernel) int64 {
	var b int64
	if k.mem != nil {
		for _, r := range k.mem.regions {
			b += int64(r.committed)
		}
	}
	return b
}

// regionCount is the number of k's OS-backed regions.
func regionCount(k *Kernel) int {
	if k.mem == nil {
		return 0
	}
	return len(k.mem.regions)
}

// waitUnmapped collects garbage until every kernel's regions are released,
// or fails after a few seconds: cleanups run on their own goroutine after
// the collection that finds their kernel unreachable.
func waitUnmapped(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); mappedBytes.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d B still committed with no kernel reachable", mappedBytes.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestOSArrayGrowthKeepsContents pins resizeWithin on arrays that reach a
// huge page: growth inside the reservation stays in place with the contents
// kept and the extension zero, and growth past it moves to a new region,
// contents kept, releasing the old one. With forceHeap, and where no region
// can be reserved (a 32-bit address space, off Linux), the same calls take
// the make+copy path with the same contents.
func TestOSArrayGrowthKeepsContents(t *testing.T) {
	for _, heap := range []bool{false, true} {
		name := "mapped"
		if heap {
			name = "heap"
		}
		t.Run(name, func(t *testing.T) {
			forceHeap = heap
			defer func() { forceHeap = false }()
			mapped := canReserve && !heap
			k := &Kernel{}
			const page = hugePage / 8
			s := resizeWithin(k, []uint64(nil), page, 4*page)
			for i := range s {
				s[i] = uint64(i) + 1
			}
			first := unsafe.SliceData(s)
			if got := committedBytes(k); mapped && got != hugePage || !mapped && got != 0 {
				t.Fatalf("one huge page of elements commits %d B", got)
			}

			s = resizeWithin(k, s, 3*page, 4*page)
			if mapped && unsafe.SliceData(s) != first {
				t.Error("growth inside the reservation moved the array")
			}
			if got, want := committedBytes(k), int64(3*hugePage); mapped && got != want {
				t.Errorf("after growing to 3 huge pages: %d B committed, want %d", got, want)
			}
			checkPrefix(t, s, page)

			s = resizeWithin(k, s, 5*page, 5*page)
			if mapped && unsafe.SliceData(s) == first {
				t.Error("growth past the reservation stayed in place")
			}
			if got, want := committedBytes(k), int64(5*hugePage); mapped && (got != want || regionCount(k) != 1) {
				t.Errorf("after moving to 5 huge pages: %d B committed in %d regions, want %d in 1",
					got, regionCount(k), want)
			}
			checkPrefix(t, s, page)

			z := resizeWithin(k, []uint64(nil), page, 2*page)
			for i := range z {
				z[i] = 1
			}
			zero := unsafe.SliceData(z)
			z = resizeZero(k, z, 2*page)
			if mapped && unsafe.SliceData(z) != zero {
				t.Error("resizeZero inside the reservation moved the array")
			}
			if slices.ContainsFunc(z, func(v uint64) bool { return v != 0 }) {
				t.Error("resizeZero in place left a non-zero element")
			}
			drop(k, z)

			s = resizeZero(k, s, 6*page)
			if slices.ContainsFunc(s, func(v uint64) bool { return v != 0 }) {
				t.Error("resizeZero left a non-zero element")
			}
			if drop(k, s); committedBytes(k) != 0 {
				t.Errorf("dropped array still commits %d B", committedBytes(k))
			}
		})
	}
}

// checkPrefix checks that s holds 1, 2, …, n and zeros after them.
func checkPrefix(t *testing.T, s []uint64, n int) {
	t.Helper()
	for i, v := range s {
		want := uint64(0)
		if i < n {
			want = uint64(i) + 1
		}
		if v != want {
			t.Fatalf("element %d is %d after growth, want %d", i, v, want)
		}
	}
}

// TestRingGrowthKeepsPendingOrder fills the completion ring with pending
// records that wrap around its end, grows it, and pops them all: they must
// come out in push order. A ring of compChunk records is heap-backed and one
// of a huge page OS-backed where the platform allows; growth from the huge
// page stays in place.
func TestRingGrowthKeepsPendingOrder(t *testing.T) {
	for _, records := range []int{compChunk, hugePage / compBytes} {
		k := &Kernel{numArcs: 8 * records}
		k.growComp(records)
		// Start the counts just short of a multiple of the ring size, so the
		// pending records wrap.
		k.compHead = uint64(3*records - records/4)
		k.compTail = k.compHead
		for i := range records {
			k.makeRoom()
			k.pushCompletion(float64(i), int32(i), int32(i))
		}
		ring := unsafe.SliceData(k.comp)
		k.makeRoom() // full: doubles the ring
		if len(k.comp) != 2*records {
			t.Fatalf("ring of %d grew to %d records, want %d", records, len(k.comp), 2*records)
		}
		if canReserve && records*compBytes >= hugePage && unsafe.SliceData(k.comp) != ring {
			t.Errorf("ring of %d records moved on growth", records)
		}
		k.pushCompletion(float64(records), int32(records), int32(records))
		for i := range records + 1 {
			arc, start, pkt := k.popCompletion()
			if arc != i || start != float64(i) || pkt != int32(i) {
				t.Fatalf("ring of %d: pop %d gave (%d, %v, %d)", records, i, arc, start, pkt)
			}
		}
		drop(k, k.comp)
	}
}

// TestMappedRunMatchesHeapRun runs the slotted 16-cube with its large arrays
// OS-backed and with every array on the heap: the metrics and every
// measured delay, in delivery order, must agree.
func TestMappedRunMatchesHeapRun(t *testing.T) {
	skipScale(t)
	cfg := slotScaleConfig(16)
	cfg.TrackQuantiles = true
	k := &Kernel{}
	mapped := k.Run(cfg)
	if canReserve && committedBytes(k) == 0 {
		t.Fatal("no array of the 16-cube is OS-backed")
	}
	forceHeap = true
	defer func() { forceHeap = false }()
	h := &Kernel{}
	if heap := h.Run(cfg); !reflect.DeepEqual(mapped, heap) {
		t.Errorf("metrics differ:\nmapped %+v\nheap   %+v", mapped, heap)
	}
	if committedBytes(h) != 0 {
		t.Errorf("forced heap run committed %d B", committedBytes(h))
	}
	if !slices.Equal(k.DelaySample(), h.DelaySample()) {
		t.Error("delay samples differ between the mapped and the heap run")
	}
}

// TestReusedKernelCommitsNothingNew runs a d = 17 point on a kernel, then
// the d = 16 configuration: every array already has room, so the second run
// commits nothing, and it returns a fresh kernel's metrics. The arrays a run
// uses no longer depend on what its pooled kernel ran before.
func TestReusedKernelCommitsNothingNew(t *testing.T) {
	skipScale(t)
	cfg := slotScaleConfig(16)
	want := (&Kernel{}).Run(cfg)
	k := &Kernel{}
	k.Run(slotScaleConfig(17))
	before, regions := committedBytes(k), regionCount(k)
	if got := k.Run(cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("d = 16 after d = 17:\n%+v\nfresh kernel:\n%+v", got, want)
	}
	if after := committedBytes(k); after != before || regionCount(k) != regions {
		t.Errorf("d = 16 after d = 17 changed the commitment from %d B in %d regions to %d B in %d",
			before, regions, after, regionCount(k))
	}
}

// TestColdRunCommitsFinalFootprint is TestColdRunAllocations' mapped
// sibling, on the slotted 16-cube: a fresh kernel's run commits exactly what
// its OS-backed arrays hold at the end, within the final footprint — growth
// in place leaves no dead copy behind. An array allocates on the heap only
// while it is below a huge page, so the stages its growth leaves on the heap
// sum to less than one; with the packet pool's four arrays and the ring
// growing, the run's heap allocation stays under five huge pages.
func TestColdRunCommitsFinalFootprint(t *testing.T) {
	skipScale(t)
	if !canReserve {
		t.Skip("no OS-backed arrays on this platform")
	}
	waitUnmapped(t) // regions of kernels earlier tests dropped
	cfg := slotScaleConfig(16)
	k := &Kernel{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k.Run(cfg)
	runtime.ReadMemStats(&after)
	committed, foot := mappedBytes.Load(), k.memFootprint()
	heap := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold run committed %d B and allocated %d B of heap; final footprint %d B", committed, heap, foot)
	if committed != committedBytes(k) || committed > foot {
		t.Errorf("run committed %d B; its arrays hold %d B of a %d B footprint", committed, committedBytes(k), foot)
	}
	if heap > 5*hugePage {
		t.Errorf("cold run allocated %d B of heap, over five huge pages", heap)
	}
}

// TestPooledKernelsReleaseTheirRegions runs 50 slot-scale points on kernels
// taken from a sync.Pool, as sim's runners are, dropping the pool's contents
// every tenth run. The committed total never exceeds one kernel's footprint:
// a reused kernel commits nothing new, and a dropped one is unmapped by its
// cleanup. Once no kernel is reachable, nothing stays committed.
func TestPooledKernelsReleaseTheirRegions(t *testing.T) {
	skipScale(t)
	if !canReserve {
		t.Skip("no OS-backed arrays on this platform")
	}
	waitUnmapped(t) // regions of kernels earlier tests dropped
	pool := &sync.Pool{New: func() any { return new(Kernel) }}
	cfg := slotScaleConfig(16)
	var foot int64
	for i := range 50 {
		if i > 0 && i%10 == 0 {
			runtime.GC() // the pool's kernel moves to its victim cache
			runtime.GC() // and is dropped
			waitUnmapped(t)
		}
		k := pool.Get().(*Kernel)
		k.Run(cfg)
		if i == 0 {
			foot = committedBytes(k)
		}
		if got := mappedBytes.Load(); got > foot {
			t.Fatalf("run %d: %d B committed, one kernel's footprint is %d B", i, got, foot)
		}
		pool.Put(k)
	}
	if foot == 0 {
		t.Fatal("no array of the 16-cube is OS-backed")
	}
	waitUnmapped(t)
}
