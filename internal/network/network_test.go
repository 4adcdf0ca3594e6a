package network

import (
	"math"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
)

// deliverAll records one delivery per delay, every packet generated at gen
// and crossing one arc.
func deliverAll(c *Collector, gen float64, delays ...float64) {
	for _, d := range delays {
		c.Deliver(gen+d, gen, 1)
	}
}

func TestStartMeasurementDiscardsWarmup(t *testing.T) {
	var c Collector
	c.Reset(1, Measurement{})
	// Warm-up traffic: a burst with long delays.
	for i := 1; i <= 100; i++ {
		c.CountGenerated()
		deliverAll(&c, 0, float64(i))
	}
	c.StartMeasurement(200)
	// Measured traffic: one isolated packet with delay exactly 1, and a
	// warm-up packet delivered late, which does not count.
	c.CountGenerated()
	deliverAll(&c, 300, 1)
	deliverAll(&c, 150, 250)
	m := c.Snapshot(400, []int{1}, []float64{0}, []float64{0})
	if m.Delivered != 1 || m.Generated != 1 {
		t.Fatalf("delivered %d, generated %d in the measurement window", m.Delivered, m.Generated)
	}
	if m.MeanDelay != 1 {
		t.Fatalf("mean delay %v, warm-up leaked into measurement", m.MeanDelay)
	}
	if m.Elapsed != 200 {
		t.Fatalf("elapsed %v", m.Elapsed)
	}
}

func TestDelayQuantileAndClasses(t *testing.T) {
	var c Collector
	c.Reset(1, Measurement{TrackQuantiles: true})
	deliverAll(&c, 0, 1, 2)
	if got := c.DelayQuantile(1.0); got != 2 {
		t.Fatalf("max quantile %v", got)
	}
	if got := c.DelayQuantile(0.0); got != 1 {
		t.Fatalf("min quantile %v", got)
	}
	m := c.Snapshot(3, []int{1}, []float64{0}, []float64{0})
	if len(m.MeanDelayByClass) != 1 || m.MeanDelayByClass[0] != 1.5 {
		t.Fatalf("per-class delays %v, want class 0 only", m.MeanDelayByClass)
	}
}

func TestDelayQuantileWithoutSampleIsNaN(t *testing.T) {
	var c Collector
	c.Reset(1, Measurement{})
	deliverAll(&c, 0, 1)
	if !math.IsNaN(c.DelayQuantile(0.5)) {
		t.Fatal("expected NaN without TrackQuantiles")
	}
}

func TestPerHopWaitStatistics(t *testing.T) {
	// Three packets injected back to back at time 0 cross arc 0 (group 0)
	// then arc 1 (group 1). At arc 0 their sojourns are 1, 2 and 3; at
	// arc 1 they arrive one time unit apart and never wait.
	var c Collector
	c.Reset(2, Measurement{TrackPerHopWait: true})
	for i := 1.0; i <= 3; i++ {
		c.ArcWait(0, i, 0, 0)
		c.ArcWait(1, i+1, i, 0)
	}
	m := c.Snapshot(4, []int{1, 1}, []float64{3, 3}, []float64{3, 3})
	if len(m.GroupMeanWait) != 2 {
		t.Fatalf("GroupMeanWait has %d entries", len(m.GroupMeanWait))
	}
	if m.GroupMeanWait[0] != 2 || m.GroupMeanWait[1] != 1 {
		t.Fatalf("group mean sojourns %v, want [2 1]", m.GroupMeanWait)
	}
}

func TestPerHopWaitResetByStartMeasurement(t *testing.T) {
	var c Collector
	c.Reset(1, Measurement{TrackPerHopWait: true})
	for i := 1.0; i <= 10; i++ {
		c.ArcWait(0, i, 0, 0) // warm-up burst with heavy queueing
	}
	c.StartMeasurement(50)
	c.ArcWait(0, 61, 60, 60)
	c.ArcWait(0, 70, 40, 40) // generated in the warm-up: not counted
	m := c.Snapshot(100, []int{1}, []float64{0}, []float64{0})
	if m.GroupMeanWait[0] != 1 {
		t.Fatalf("mean sojourn after reset %v, want 1", m.GroupMeanWait[0])
	}
}

func TestPerHopWaitAbsentWithoutFlag(t *testing.T) {
	var c Collector
	c.Reset(1, Measurement{})
	c.ArcWait(0, 1, 0, 0)
	if c.Snapshot(1, []int{1}, []float64{1}, []float64{1}).GroupMeanWait != nil {
		t.Fatal("GroupMeanWait should be nil when tracking is disabled")
	}
}

func TestDisciplineString(t *testing.T) {
	if FIFO.String() != "fifo" || RandomOrder.String() != "random-order" {
		t.Fatal("discipline names wrong")
	}
	if Discipline(42).String() == "" {
		t.Fatal("unknown discipline name empty")
	}
}

// TestGroupShiftMatchesTopologyArcLayout pins the block rule the kernel
// groups arcs by against the topologies' own arc indexing: a hypercube's
// groups are its dimensions, a butterfly's its (level, arc kind) pairs.
func TestGroupShiftMatchesTopologyArcLayout(t *testing.T) {
	for d := 1; d <= 6; d++ {
		cube := hypercube.New(d)
		shift := GroupShift(cube.NumArcs(), d)
		for a := 0; a < cube.NumArcs(); a++ {
			if got, want := a>>shift, int(cube.DimensionOfArcIndex(a))-1; got != want {
				t.Fatalf("hypercube d=%d arc %d: group %d, want dimension group %d", d, a, got, want)
			}
		}
		bf := butterfly.New(d)
		shift = GroupShift(bf.NumArcs(), 2*d)
		for a := 0; a < bf.NumArcs(); a++ {
			want := 2 * (int(bf.LevelOfArcIndex(a)) - 1)
			if bf.KindOfArcIndex(a) == butterfly.Vertical {
				want++
			}
			if got := a >> shift; got != want {
				t.Fatalf("butterfly d=%d arc %d: group %d, want level/kind group %d", d, a, got, want)
			}
		}
	}
	if got := GroupShift(7, 1); 6>>got != 0 {
		t.Errorf("one group: arc 6 shifts to %d", 6>>got)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for groups that are not power-of-two blocks")
		}
	}()
	GroupShift(12, 4)
}
