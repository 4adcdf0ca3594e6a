package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// workload is one family of benchmark inputs: a sweep spec template whose
// seed changes per request, and the way the spec reaches the simulator.
type workload struct {
	name string
	// daemon serves the specs through one long-running simd over HTTP;
	// otherwise each spec is one `sweep -spec <file> -json` process.
	daemon bool
	// spec is the request's sweep spec for the given simulation seed.
	spec func(seed uint64) sweepSpec
	// stationary marks specs whose horizon is long enough for the measured
	// mean delay to sit inside the paper's greedy bounds and the mean hop
	// count near d·p; short slot-kernel runs end mid-transient.
	stationary bool
}

// workloads are closed loops: one client sends the next spec only after the
// previous one's last row arrived.
var workloads = map[string]workload{
	// The paper's headline setting — greedy routing on a hypercube with
	// continuous-time Poisson arrivals — which runs on the event-driven
	// kernel: three load points of a 7-cube, executed concurrently.
	"event-driven": {
		name:       "event-driven",
		spec:       func(seed uint64) sweepSpec { return hypercubeSweep("event-driven", 7, 400, seed, 0.5, 0.7, 0.9) },
		stationary: true,
	},
	// The slot-stepped kernel at scale: one slotted 16-cube point (65536
	// nodes, 2^20 arcs), whose per-arc state outgrows the core caches. The
	// horizon is short, so the work is injection and stepping at full size.
	"slot-scale": {
		name: "slot-scale",
		spec: func(seed uint64) sweepSpec {
			sw := hypercubeSweep("slot-scale", 16, 4, seed, 0.7)
			sw.Base.Slotted, sw.Base.Tau = true, 1
			sw.Base.SkipPerDimensionStats = true
			return sw
		},
	},
	// Many small sweeps served by simd: each is admitted, scheduled on the
	// shared pool, journalled point by point with fsync and streamed back
	// over HTTP — the daemon's per-job overhead is a visible share.
	"daemon": {
		name:       "daemon",
		daemon:     true,
		spec:       func(seed uint64) sweepSpec { return hypercubeSweep("daemon", 6, 300, seed, 0.2, 0.4, 0.6, 0.8) },
		stationary: true,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// sweepSpec mirrors the subset of the spec schema (docs/SPEC.md) the
// workloads use, so the end-to-end path depends on the file format only.
type sweepSpec struct {
	Name string     `json:"name"`
	Base specBase   `json:"base"`
	Axes []specAxis `json:"axes"`
}

type specBase struct {
	Topology struct {
		Kind string `json:"kind"`
		D    int    `json:"d"`
	} `json:"topology"`
	P                     float64 `json:"p"`
	Slotted               bool    `json:"slotted,omitempty"`
	Tau                   float64 `json:"tau,omitempty"`
	Horizon               float64 `json:"horizon"`
	Seed                  uint64  `json:"seed"`
	SkipPerDimensionStats bool    `json:"skip_per_dimension_stats,omitempty"`
}

type specAxis struct {
	Field  string    `json:"field"`
	Values []float64 `json:"values"`
}

// hypercubeSweep is a uniform-traffic (p = 1/2) greedy hypercube sweep over
// the given load factors.
func hypercubeSweep(name string, d int, horizon float64, seed uint64, loads ...float64) sweepSpec {
	var sw sweepSpec
	sw.Name = name
	sw.Base.Topology.Kind, sw.Base.Topology.D = "hypercube", d
	sw.Base.P, sw.Base.Horizon, sw.Base.Seed = 0.5, horizon, seed
	sw.Axes = []specAxis{{Field: "load_factor", Values: loads}}
	return sw
}

func (sw sweepSpec) JSON() []byte {
	data, err := json.Marshal(sw)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal spec: %v", err)) // plain structs always marshal
	}
	return data
}

// requestSeed derives the simulation seed of request i of a run seeded with
// runSeed (SplitMix64), so every request is a distinct spec — the daemon's
// result cache never serves one — and a run is reproducible from its seed.
// Seeds stay below 2^31 so spec files read naturally.
func requestSeed(runSeed uint64, i int) uint64 {
	z := runSeed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z >> 33
}
