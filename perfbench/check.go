package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// outRow is the part of a JSON Lines row (`sweep -json`, the daemon's row
// stream) the checks read.
type outRow struct {
	Point  int                `json:"point"`
	Axes   map[string]float64 `json:"axes"`
	Result struct {
		Topology struct {
			Kind string `json:"kind"`
			D    int    `json:"d"`
		} `json:"topology"`
		LoadFactor float64 `json:"load_factor"`
		Metrics    struct {
			MeanDelay float64
			MeanHops  float64
			Delivered int64
			Generated int64
		} `json:"metrics"`
		WithinPaperBounds bool `json:"within_paper_bounds"`
	} `json:"result"`
}

// checkRows verifies the row stream the simulator returned for the spec and
// returns the number of packets it measured: those injected after the
// warm-up, summed over rows. Every row must belong to the spec, in point
// order, and obey what holds for any run of the paper's model: each hop
// takes one unit of service, so a delivered packet's delay is at least its
// hop count, which is at most d. On stationary workloads the mean delay must
// also lie within the paper's greedy bounds (the row's within_paper_bounds)
// and the mean hop count within 5% of d·p.
func checkRows(w workload, sw sweepSpec, data []byte) (packets float64, err error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	loads := sw.Axes[0].Values
	if len(data) == 0 || len(lines) != len(loads) {
		return 0, fmt.Errorf("got %d rows, want %d", len(lines), len(loads))
	}
	d := sw.Base.Topology.D
	for i, line := range lines {
		var r outRow
		if err := json.Unmarshal(line, &r); err != nil {
			return 0, fmt.Errorf("row %d: %w", i, err)
		}
		res, m := r.Result, r.Result.Metrics
		switch {
		case r.Point != i:
			return 0, fmt.Errorf("row %d carries point %d", i, r.Point)
		case r.Axes["load_factor"] != loads[i] || res.LoadFactor != loads[i]:
			return 0, fmt.Errorf("row %d: load factor %v, want %v", i, res.LoadFactor, loads[i])
		case res.Topology.Kind != sw.Base.Topology.Kind || res.Topology.D != d:
			return 0, fmt.Errorf("row %d: topology %s(d=%d), want %s(d=%d)", i, res.Topology.Kind, res.Topology.D, sw.Base.Topology.Kind, d)
		case m.Delivered <= 0 || m.Generated <= 0:
			return 0, fmt.Errorf("row %d: %d packets generated, %d delivered", i, m.Generated, m.Delivered)
		case !(m.MeanHops > 0 && m.MeanHops <= float64(d)):
			return 0, fmt.Errorf("row %d: mean hops %v outside (0, %d]", i, m.MeanHops, d)
		case !(m.MeanDelay >= m.MeanHops-1e-9):
			return 0, fmt.Errorf("row %d: mean delay %v below mean hops %v", i, m.MeanDelay, m.MeanHops)
		}
		if w.stationary {
			want := float64(d) * sw.Base.P
			if math.Abs(m.MeanHops-want) > 0.05*want {
				return 0, fmt.Errorf("row %d: mean hops %v, want %v ± 5%%", i, m.MeanHops, want)
			}
			if !res.WithinPaperBounds {
				return 0, fmt.Errorf("row %d: mean delay %v outside the paper's bounds", i, m.MeanDelay)
			}
		}
		packets += float64(m.Generated)
	}
	return packets, nil
}
