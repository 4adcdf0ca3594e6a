package harness

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// BenchMeasurement is one parsed result line of `go test -bench` output.
type BenchMeasurement struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Experiment is the experiment id (E1, A2, ...) when the benchmark name
	// follows the Benchmark<ID>... convention, empty otherwise.
	Experiment string `json:"experiment,omitempty"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the reported B/op (with -benchmem), else 0.
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is the reported allocs/op (with -benchmem), else 0.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

var benchExperimentRe = regexp.MustCompile(`^Benchmark(E[0-9]+|A[0-9]+)[A-Z]`)

// ParseBenchOutput extracts the benchmark result lines from `go test -bench`
// output. Non-benchmark lines (goos/pkg headers, PASS/ok trailers) are
// skipped; malformed benchmark lines are an error.
func ParseBenchOutput(r io.Reader) ([]BenchMeasurement, error) {
	var out []BenchMeasurement
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name-P N t ns/op [b B/op a allocs/op ...]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := BenchMeasurement{Name: name}
		if sub := benchExperimentRe.FindStringSubmatch(name); sub != nil {
			m.Experiment = sub[1]
		}
		var err error
		if m.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("harness: bad iteration count in %q: %v", line, err)
		}
		if m.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return nil, fmt.Errorf("harness: bad ns/op in %q: %v", line, err)
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeBenchRuns collapses repeated measurements of the same benchmark
// (`go test -count=N`) into one entry per name, keeping the minimum ns/op
// (and the matching B/op) — the standard noise-floor estimate for regression
// gating — and the minimum allocs/op over the repeats that report one, so
// that setup allocations amortised over different iteration counts do not
// move it. Order follows each benchmark's first appearance.
func MergeBenchRuns(ms []BenchMeasurement) []BenchMeasurement {
	idx := make(map[string]int, len(ms))
	var out []BenchMeasurement
	for _, m := range ms {
		i, ok := idx[m.Name]
		if !ok {
			idx[m.Name] = len(out)
			out = append(out, m)
			continue
		}
		allocs := out[i].AllocsPerOp
		if m.AllocsPerOp > 0 && (allocs == 0 || m.AllocsPerOp < allocs) {
			allocs = m.AllocsPerOp
		}
		if m.NsPerOp < out[i].NsPerOp {
			out[i] = m
		}
		out[i].AllocsPerOp = allocs
	}
	return out
}

// BenchComparison pairs a benchmark's base and head measurements.
type BenchComparison struct {
	Name        string  `json:"name"`
	BaseNsPerOp float64 `json:"base_ns_per_op"`
	HeadNsPerOp float64 `json:"head_ns_per_op"`
	// Ratio is head/base ns/op; above 1 means the head is slower.
	Ratio float64 `json:"ratio"`
	// BaseAllocsPerOp / HeadAllocsPerOp carry the -benchmem numbers when
	// present; benchdiff gates on them too.
	BaseAllocsPerOp float64 `json:"base_allocs_per_op,omitempty"`
	HeadAllocsPerOp float64 `json:"head_allocs_per_op,omitempty"`
}

// CompareBenchmarks matches base and head measurements by name (head order)
// and reports the ns/op ratio for every benchmark present in both.
func CompareBenchmarks(base, head []BenchMeasurement) []BenchComparison {
	byName := make(map[string]BenchMeasurement, len(base))
	for _, m := range base {
		byName[m.Name] = m
	}
	var out []BenchComparison
	for _, h := range head {
		b, ok := byName[h.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		out = append(out, BenchComparison{
			Name:            h.Name,
			BaseNsPerOp:     b.NsPerOp,
			HeadNsPerOp:     h.NsPerOp,
			Ratio:           h.NsPerOp / b.NsPerOp,
			BaseAllocsPerOp: b.AllocsPerOp,
			HeadAllocsPerOp: h.AllocsPerOp,
		})
	}
	return out
}
