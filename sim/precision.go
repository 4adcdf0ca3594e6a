package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Sequential-stopping defaults, used when the corresponding PrecisionSpec
// field is zero.
const (
	// DefaultPrecisionBatch is the number of replications run between
	// stopping checks.
	DefaultPrecisionBatch = 8
	// DefaultPrecisionMaxReplications caps the sequential run.
	DefaultPrecisionMaxReplications = 1024
	// DefaultPrecisionLevel is the confidence level of both targets.
	DefaultPrecisionLevel = 0.95
	// DefaultPrecisionQuantile is the quantile whose rank error the
	// rank_error target bounds.
	DefaultPrecisionQuantile = 0.99
)

// precisionMetrics lists the metric keys a precision block may target with
// target_ci: the scalar measurements every kernel reports for every
// replication (topology-conditional metrics would make the stopping rule
// undefined on the wrong topology).
var precisionMetrics = []string{
	MetricMeanDelay,
	MetricMeanHops,
	MetricMeanPacketsPerNode,
	MetricMeanPopulation,
	MetricThroughput,
}

// PrecisionSpec is the "precision" block of a scenario: instead of a fixed
// replication count, replications run in deterministic batches until the
// requested accuracy is reached (sequential stopping). At least one of
// TargetCI and RankError must be set; when both are, both must be met.
//
// Stopping is evaluated on the merged cumulative state after each batch, and
// every batch's seeds derive from (Scenario.Seed, batch index) alone, so the
// replication count and every reported byte are identical at any parallelism.
type PrecisionSpec struct {
	// TargetCI is the target half-width of the confidence interval on the
	// mean of Metric: the run stops once the half-width at Level is at most
	// TargetCI (absolute), or at most TargetCI*|mean| when Relative is set.
	TargetCI float64 `json:"target_ci,omitempty"`
	// Relative interprets TargetCI as a fraction of the running mean.
	Relative bool `json:"relative,omitempty"`
	// Metric names the tally TargetCI applies to (default mean_delay; one of
	// mean_delay, mean_hops, mean_packets_per_node, mean_population,
	// throughput).
	Metric string `json:"metric,omitempty"`

	// RankError is the target standard error of the quantile estimator's
	// rank, in (0, 0.5): the run stops once z*sqrt(q*(1-q)/N) is at most
	// RankError, where N is the total number of sketched delays and z the
	// Level normal quantile. Requires tail_quantiles.
	RankError float64 `json:"rank_error,omitempty"`
	// Quantile is the q the rank-error target bounds (default 0.99).
	Quantile float64 `json:"quantile,omitempty"`

	// Batch is the number of replications between stopping checks
	// (default 8, minimum 2). The batch layout is part of the deterministic
	// run identity, like the engine's shard layout.
	Batch int `json:"batch,omitempty"`
	// MaxReplications caps the run (default 1024); reaching it stops the run
	// with PrecisionResult.TargetMet reporting whether the targets held.
	MaxReplications int `json:"max_replications,omitempty"`
	// Level is the confidence level of both targets (default 0.95).
	Level float64 `json:"level,omitempty"`
}

// validate checks the block's internal consistency; tailQuantiles reports
// whether the scenario records the delay sketch the rank_error target needs.
func (p *PrecisionSpec) validate(tailQuantiles bool) error {
	if p.TargetCI == 0 && p.RankError == 0 {
		return fmt.Errorf("sim: precision block must set target_ci and/or rank_error")
	}
	if p.TargetCI < 0 {
		return fmt.Errorf("sim: precision target_ci = %v must be positive", p.TargetCI)
	}
	if p.TargetCI == 0 && p.Relative {
		return fmt.Errorf("sim: precision relative requires target_ci")
	}
	if p.Metric != "" {
		if p.TargetCI == 0 {
			return fmt.Errorf("sim: precision metric requires target_ci")
		}
		if !slices.Contains(precisionMetrics, p.Metric) {
			return fmt.Errorf("sim: precision metric %q unknown (valid: %v)", p.Metric, precisionMetrics)
		}
	}
	if p.RankError != 0 {
		if p.RankError < 0 || p.RankError >= 0.5 {
			return fmt.Errorf("sim: precision rank_error = %v outside (0, 0.5)", p.RankError)
		}
		if !tailQuantiles {
			return fmt.Errorf("sim: precision rank_error requires tail_quantiles")
		}
	}
	if p.Quantile != 0 {
		if p.RankError == 0 {
			return fmt.Errorf("sim: precision quantile requires rank_error")
		}
		if p.Quantile <= 0 || p.Quantile >= 1 {
			return fmt.Errorf("sim: precision quantile = %v outside (0, 1)", p.Quantile)
		}
	}
	if p.Batch != 0 && p.Batch < 2 {
		return fmt.Errorf("sim: precision batch = %d must be at least 2", p.Batch)
	}
	if p.MaxReplications != 0 {
		batch := p.Batch
		if batch == 0 {
			batch = DefaultPrecisionBatch
		}
		if p.MaxReplications < batch {
			return fmt.Errorf("sim: precision max_replications = %d is below the batch size %d", p.MaxReplications, batch)
		}
	}
	if p.Level != 0 && (p.Level <= 0 || p.Level >= 1) {
		return fmt.Errorf("sim: precision level = %v outside (0, 1)", p.Level)
	}
	return nil
}

// resolved returns a copy of the spec with every default filled in.
func (p *PrecisionSpec) resolved() PrecisionSpec {
	r := *p
	if r.Metric == "" {
		r.Metric = MetricMeanDelay
	}
	if r.Quantile == 0 {
		r.Quantile = DefaultPrecisionQuantile
	}
	if r.Batch == 0 {
		r.Batch = DefaultPrecisionBatch
	}
	if r.MaxReplications == 0 {
		r.MaxReplications = DefaultPrecisionMaxReplications
	}
	if r.Level == 0 {
		r.Level = DefaultPrecisionLevel
	}
	return r
}

// PrecisionResult reports the outcome of a sequential-stopping run.
type PrecisionResult struct {
	// Replications is the number of replications actually run.
	Replications int `json:"replications"`
	// Batches is the number of stopping checks performed.
	Batches int `json:"batches"`
	// TargetMet reports whether every requested target held when the run
	// stopped; false means MaxReplications was exhausted first.
	TargetMet bool `json:"target_met"`
	// HalfWidth is the final confidence-interval half-width on the target
	// metric's mean (absolute, even for a relative target); NaN when the
	// spec set no target_ci. Declared after TargetMet because JSON keys
	// follow declaration order and the result rows have always written
	// half_width and rank_error last.
	HalfWidth float64 `json:"half_width"`
	// RankError is the final rank standard error of the target quantile; NaN
	// when the spec set no rank_error.
	RankError float64 `json:"rank_error"`
}

// MarshalJSON writes the block under the NaN-as-null rule.
func (p *PrecisionResult) MarshalJSON() ([]byte, error) { return marshalNullSafe(p) }

// UnmarshalJSON reads the block under the NaN-as-null rule.
func (p *PrecisionResult) UnmarshalJSON(data []byte) error { return unmarshalNullSafe(data, p) }

// runSequential executes the scenario with sequential stopping: batches of
// replications on the sharded engine, merged into cumulative tallies and a
// cumulative delay sketch, until the precision targets are met or the
// replication cap is reached.
//
// Determinism: batch b draws its replication seeds from
// SplitSeed(Scenario.Seed, b), so the seed of every replication is a pure
// function of (seed, batch layout) — independent of parallelism and of where
// stopping lands. The stopping decision itself reads only the merged
// cumulative state after the batch barrier, which the engine guarantees is
// bit-identical at any parallelism; the replication count is therefore
// deterministic too.
func runSequential(ctx context.Context, sc *Scenario, n normalized) (*Result, error) {
	spec := sc.Precision.resolved()
	res := n.analyticResult()
	task := replicationTask(sc, n)

	cum := &engine.Result{
		Metrics:  map[string]*stats.Tally{},
		Sketches: map[string]*stats.DDSketch{},
	}
	pr := &PrecisionResult{HalfWidth: math.NaN(), RankError: math.NaN()}

	for reps := 0; reps < spec.MaxReplications; {
		batch := spec.Batch
		if rest := spec.MaxReplications - reps; batch > rest {
			batch = rest
		}
		ecfg := engine.Config{
			Replications: batch,
			Parallelism:  sc.Parallelism,
			BaseSeed:     xrand.SplitSeed(sc.Seed, uint64(pr.Batches)),
			Pool:         sc.Pool,
		}
		merged, err := engine.Run(ctx, ecfg, task)
		if err != nil {
			return nil, err
		}
		for k, t := range merged.Metrics {
			dst, ok := cum.Metrics[k]
			if !ok {
				dst = &stats.Tally{}
				cum.Metrics[k] = dst
			}
			dst.Merge(t)
		}
		for k, s := range merged.Sketches {
			dst, ok := cum.Sketches[k]
			if !ok {
				dst = &stats.DDSketch{}
				cum.Sketches[k] = dst
			}
			dst.Merge(s)
		}
		reps += batch
		pr.Batches++
		pr.Replications = reps
		if sc.Progress != nil {
			sc.Progress(reps, spec.MaxReplications)
		}
		if precisionMet(&spec, cum, pr) {
			pr.TargetMet = true
			break
		}
	}

	finishMergedResult(res, cum)
	res.Precision = pr
	return res, nil
}

// precisionMet evaluates the stopping rule on the cumulative merged state and
// records the measured accuracy in pr. Every requested target must hold.
func precisionMet(spec *PrecisionSpec, cum *engine.Result, pr *PrecisionResult) bool {
	met := true
	if spec.TargetCI > 0 {
		t := cum.Metrics[spec.Metric]
		hw := math.NaN()
		ok := false
		if t != nil && t.Count() >= 2 {
			hw = t.ConfidenceInterval(spec.Level)
			if spec.Relative {
				// A zero mean admits no relative target; only a degenerate
				// zero-width interval satisfies it.
				ok = hw <= spec.TargetCI*math.Abs(t.Mean())
			} else {
				ok = hw <= spec.TargetCI
			}
		}
		pr.HalfWidth = hw
		met = met && ok
	}
	if spec.RankError > 0 {
		se := math.NaN()
		ok := false
		if s := cum.Sketches[sketchMetricName]; s != nil && s.Count() > 0 {
			z := stats.NormalQuantile(0.5 + spec.Level/2)
			se = z * math.Sqrt(spec.Quantile*(1-spec.Quantile)/float64(s.Count()))
			ok = se <= spec.RankError
		}
		pr.RankError = se
		met = met && ok
	}
	return met
}
