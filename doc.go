// Package repro reproduces "The Efficiency of Greedy Routing in Hypercubes
// and Butterflies" (G. D. Stamoulis and J. N. Tsitsiklis, SPAA 1991 /
// MIT LIDS-P-1999).
//
// The public API lives in the repro/sim package: one topology-polymorphic
// sim.Scenario (hypercube | butterfly) with shared validation, one
// sim.Run(ctx, scenario) entry point with engine-native replication, a
// declarative sim.Sweep layer (named axes over scalar scenario fields,
// cross-product or zipped expansion, sim.RunSweep streaming ordered rows to
// CSV/JSON-Lines sinks), and a JSON spec schema for scenario and sweep
// files (docs/SPEC.md). Routing is part of the scenario — greedy dimension
// order, random order, Valiant two-phase, and the deflection (hot-potato)
// related-work baseline on its own slotted kernel. The experiment registry
// (E1..E18 plus the ablations A1..A3 — run `experiments -list` for the live
// set, or see docs/EXPERIMENTS.md for the catalog mapping each experiment to
// its paper result, spec shape and output shape) and the report harness live
// in internal/harness; experiments execute their replications, grid points and
// sweeps on the sharded parallel engine in internal/engine, which derives
// deterministic per-shard RNG substreams by seed splitting (internal/xrand),
// runs shards on a worker pool bounded by the configured parallelism, and
// merges per-shard streaming statistics (internal/stats) in shard order — so
// identical seeds produce byte-identical tables at any parallelism.
// Everything is exposed through the cmd/experiments, cmd/run and cmd/sweep
// binaries (all of which take -parallelism and -json flags), the cmd/simd
// daemon and cmd/simc coordinator, and the root-level benchmarks in
// bench_test.go. See README.md for the layout, the engine architecture, the
// scenario/sweep API and the experiment index.
package repro
