package harness

import "testing"

// maxSweepPoints is sim's expansion cap (docs/SPEC.md, "Validation errors
// (sweep)").
const maxSweepPoints = 100000

// FuzzLoadSpecData feeds arbitrary bytes through the spec loader, which also
// parses simd's POST /v1/jobs bodies. The seed corpus under
// testdata/fuzz/FuzzLoadSpecData holds every specs/*.json plus sweeps with
// mistyped, aliased, nested (faults.*, precision.*) and duplicate axes; plain
// `go test` replays it. The loader must never panic, and every sweep it
// accepts must expand, to at most maxSweepPoints points.
func FuzzLoadSpecData(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		scs, sw, err := LoadSpecData("fuzz.json", data)
		if err != nil {
			return
		}
		if sw == nil {
			if len(scs) == 0 {
				t.Fatal("accepted a spec with no scenarios")
			}
			return
		}
		rows, err := sw.ExpandRows()
		if err != nil {
			t.Fatalf("accepted sweep does not expand: %v", err)
		}
		if len(rows) == 0 || len(rows) > maxSweepPoints {
			t.Fatalf("accepted sweep expands to %d points", len(rows))
		}
	})
}
