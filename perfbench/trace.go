package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/sim"
)

// span is one timed call into a layer. The spans of one request share
// Trace; Parent is the enclosing span's ID, 0 for a request's root.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Work   float64 `json:"work,omitempty"`        // rows, packets or bytes handled inside
	Alloc  uint64  `json:"alloc_bytes,omitempty"` // heap bytes allocated inside
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, work float64) {
	s := &t.spans[id-1]
	s.End, s.Work = int64(time.Since(t.t0)), work
}

// layer collects the finished spans with the given name.
func (t *tracer) layer(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runTraced sends the workload's specs through the simulator's layers in
// process, with a span around each call: spec decoding and expansion, the
// kernel run of every point, the JSON Lines and CSV row sinks, and the
// fsync'd checkpoint journal. Each request also replays one finished job
// through simd's HTTP row stream, which isolates the daemon's serving
// layer from simulation. Spans go to .bench_build/traces/.
func runTraced(ctx context.Context, e *env, measure time.Duration) (rep *report, err error) {
	d, err := startDaemon(ctx, e, filepath.Join(e.work, "state"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	// The replayed job: request 0's spec, run once by the daemon up front.
	replaySpec := e.w.spec(requestSeed(e.seed, 0)).JSON()
	replayRows, err := d.run(ctx, replaySpec)
	if err != nil {
		return nil, err
	}

	tr := &tracer{t0: time.Now()}
	rep = &report{Correct: true}
	var firstRows []byte
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < measure; i++ {
		rep.Attempted++
		sw := e.w.spec(requestSeed(e.seed, i))
		root := tr.begin(i, 0, "request")
		rows, packets, err := traceLayers(ctx, e, tr, i, root, sw)
		if err == nil {
			span := tr.begin(i, root, "http")
			var replayed []byte
			replayed, err = d.run(ctx, replaySpec)
			tr.end(span, float64(len(replayed)))
			if err == nil && !bytes.Equal(replayed, replayRows) {
				err = errors.New("daemon replay differs from its first stream")
			}
		}
		tr.end(root, packets)
		if err != nil {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: traced request %d: %v\n", i, err)
			continue
		}
		if i == 0 {
			firstRows = rows
		}
	}
	// The library's rows must be the bytes both the CLI and the daemon emit.
	if firstRows != nil {
		path, err := e.specFile("recheck", replaySpec)
		if err != nil {
			return nil, err
		}
		cliRows, err := runCLI(ctx, e, path)
		if err != nil || !bytes.Equal(cliRows, firstRows) || !bytes.Equal(replayRows, firstRows) {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: in-process rows of request 0 differ from the sweep CLI's or the daemon's (err %v)\n", err)
		}
	}

	traces := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	out := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", e.w.name, e.seed))
	if err := tr.write(out); err != nil {
		return nil, err
	}
	rep.Metrics, err = layerMetrics(tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d traced requests, %d spans in %s\n",
		e.w.name, e.seed, rep.Attempted, len(tr.spans), out)
	return rep, nil
}

// traceLayers runs one spec through the layers under the root span and
// returns its JSON Lines rows and measured packets.
func traceLayers(ctx context.Context, e *env, tr *tracer, i, root int, spec sweepSpec) ([]byte, float64, error) {
	data := spec.JSON()
	span := tr.begin(i, root, "spec")
	var sw sim.Sweep
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sw)
	var rows []sim.Row
	if err == nil {
		rows, err = sw.ExpandRows()
	}
	tr.end(span, float64(len(rows)))
	if err != nil {
		return nil, 0, fmt.Errorf("spec: %w", err)
	}

	path := filepath.Join(e.work, fmt.Sprintf("journal-%d", i))
	journal, err := sim.OpenSweepJournal(sw, path)
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(path)
	defer journal.Close()
	var jsonl, csv bytes.Buffer
	jsonlSink, csvSink := sim.NewJSONLSink(&jsonl), sim.NewCSVSink(&csv)
	for k := range rows {
		sc := rows[k].Scenario
		sc.Parallelism = 1 // as a sweep runs its points
		span := tr.begin(i, root, "kernel")
		a0 := heapAllocs()
		res, err := sim.Run(ctx, sc)
		alloc := heapAllocs() - a0
		if err != nil {
			tr.end(span, 0)
			return nil, 0, fmt.Errorf("point %d: %w", k, err)
		}
		tr.end(span, float64(res.Metrics.Generated))
		tr.spans[span-1].Alloc = alloc
		rows[k].Result = res

		for _, layer := range []struct {
			name string
			call func() error
		}{
			{"jsonl", func() error { return jsonlSink.WriteRow(rows[k]) }},
			{"csv", func() error { return csvSink.WriteRow(rows[k]) }},
			{"journal", func() error { return journal.Record(k, res) }},
		} {
			span := tr.begin(i, root, layer.name)
			err := layer.call()
			tr.end(span, 1)
			if err != nil {
				return nil, 0, fmt.Errorf("point %d: %s: %w", k, layer.name, err)
			}
		}
	}
	if err := journal.Close(); err != nil {
		return nil, 0, err
	}
	packets, err := checkRows(e.w, spec, jsonl.Bytes())
	return jsonl.Bytes(), packets, err
}

// layerMetrics reduces the spans to the per-layer metrics: per-call
// latencies as medians, per-unit costs as ratios of sums.
func layerMetrics(tr *tracer) (map[string]metric, error) {
	callMedian := func(name string, unit time.Duration) (float64, error) {
		spans := tr.layer(name)
		if len(spans) == 0 {
			return 0, fmt.Errorf("no %s spans", name)
		}
		xs := make([]float64, len(spans))
		for k, s := range spans {
			xs[k] = float64(s.dur()) / float64(unit)
		}
		return median(xs), nil
	}
	var kernelTime time.Duration
	var packets, alloc float64
	for _, s := range tr.layer("kernel") {
		kernelTime += s.dur()
		packets += s.Work
		alloc += float64(s.Alloc)
	}
	if packets == 0 {
		return nil, errors.New("no packets measured")
	}
	m := map[string]metric{
		"kernel_ns_per_packet":          {float64(kernelTime) / packets, "ns"},
		"kernel_alloc_bytes_per_packet": {alloc / packets, "B"},
	}
	for _, l := range []struct {
		name, metric, unit string
		scale              time.Duration
	}{
		{"spec", "spec_load_us", "us", time.Microsecond},
		{"jsonl", "jsonl_row_us", "us", time.Microsecond},
		{"csv", "csv_row_us", "us", time.Microsecond},
		{"journal", "journal_append_us", "us", time.Microsecond},
		{"http", "http_replay_ms", "ms", time.Millisecond},
	} {
		v, err := callMedian(l.name, l.scale)
		if err != nil {
			return nil, err
		}
		m[l.metric] = metric{v, l.unit}
	}
	return m, nil
}
