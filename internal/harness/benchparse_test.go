package harness

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE1HypercubeDelayVsD 	       3	1576114880 ns/op	462875917 B/op	11423770 allocs/op
BenchmarkE3HeavyTraffic-8      	       3	 733589349 ns/op	221733400 B/op	 5535318 allocs/op
BenchmarkAblationArcPriority-8 	       1	 100000000 ns/op
PASS
ok  	repro	10.179s
`

func TestParseBenchOutput(t *testing.T) {
	ms, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("parsed %d measurements, want 3", len(ms))
	}
	m := ms[0]
	if m.Name != "BenchmarkE1HypercubeDelayVsD" || m.Experiment != "E1" {
		t.Fatalf("first measurement = %+v", m)
	}
	if m.Iterations != 3 || m.NsPerOp != 1576114880 || m.AllocsPerOp != 11423770 {
		t.Fatalf("first measurement values = %+v", m)
	}
	if ms[1].Name != "BenchmarkE3HeavyTraffic" || ms[1].Experiment != "E3" {
		t.Fatalf("second measurement = %+v", ms[1])
	}
	if ms[2].Experiment != "" || ms[2].BytesPerOp != 0 {
		t.Fatalf("ablation measurement = %+v", ms[2])
	}
}

func TestCompareBenchmarks(t *testing.T) {
	base := []BenchMeasurement{
		{Name: "BenchmarkE1", NsPerOp: 100, AllocsPerOp: 1000},
		{Name: "BenchmarkOnlyInBase", NsPerOp: 5},
	}
	head := []BenchMeasurement{
		{Name: "BenchmarkE1", NsPerOp: 120, AllocsPerOp: 10},
		{Name: "BenchmarkOnlyInHead", NsPerOp: 7},
	}
	cmp := CompareBenchmarks(base, head)
	if len(cmp) != 1 {
		t.Fatalf("comparisons = %+v", cmp)
	}
	c := cmp[0]
	if c.Name != "BenchmarkE1" || c.Ratio != 1.2 || c.BaseAllocsPerOp != 1000 || c.HeadAllocsPerOp != 10 {
		t.Fatalf("comparison = %+v", c)
	}
}

func TestMergeBenchRunsKeepsMinimum(t *testing.T) {
	ms := []BenchMeasurement{
		{Name: "BenchmarkE1", NsPerOp: 120, AllocsPerOp: 50},
		{Name: "BenchmarkE2", NsPerOp: 10},
		{Name: "BenchmarkE1", NsPerOp: 100, AllocsPerOp: 40},
		{Name: "BenchmarkE1", NsPerOp: 110, AllocsPerOp: 45},
		{Name: "BenchmarkE1", NsPerOp: 130, AllocsPerOp: 38}, // more iterations amortise setup
	}
	out := MergeBenchRuns(ms)
	if len(out) != 2 {
		t.Fatalf("merged = %+v", out)
	}
	if out[0].Name != "BenchmarkE1" || out[0].NsPerOp != 100 || out[0].AllocsPerOp != 38 {
		t.Fatalf("merged E1 = %+v", out[0])
	}
	if out[1].Name != "BenchmarkE2" || out[1].NsPerOp != 10 {
		t.Fatalf("merged E2 = %+v", out[1])
	}
}
