package harness

import (
	"encoding/json"
	"time"
)

// ArtifactSchema identifies the JSON artifact layout emitted by the harness;
// bump the version suffix on breaking changes so downstream tooling can
// dispatch on it.
const ArtifactSchema = "repro/experiment-table@v1"

// Artifact is the machine-readable record of one experiment run: the
// experiment identity, the configuration that produced it, and the resulting
// table. It is what cmd/experiments -json emits, one JSON document per
// experiment, so that the paper-versus-measured record can be diffed and
// tracked by tooling instead of being screen-scraped from aligned text.
type Artifact struct {
	Schema         string  `json:"schema"`
	ID             string  `json:"id"`
	Title          string  `json:"title"`
	Claim          string  `json:"claim"`
	Quick          bool    `json:"quick"`
	Seed           uint64  `json:"seed"`
	Parallelism    int     `json:"parallelism"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Table          *Table  `json:"table"`
}

// NewArtifact assembles the artifact for one completed experiment run.
func NewArtifact(e Experiment, cfg RunConfig, table *Table, elapsed time.Duration) Artifact {
	return Artifact{
		Schema:         ArtifactSchema,
		ID:             e.ID,
		Title:          e.Title,
		Claim:          e.Claim,
		Quick:          cfg.Quick,
		Seed:           cfg.Seed,
		Parallelism:    cfg.Parallelism,
		ElapsedSeconds: elapsed.Seconds(),
		Table:          table,
	}
}

// JSON renders the artifact as indented JSON.
func (a Artifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}
