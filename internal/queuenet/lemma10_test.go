package queuenet

import (
	"fmt"
	"testing"
)

// lemma10Case is one equivalent network Q of a d-cube under bit-flip
// traffic with flip probability p at load rho (λ = rho/p), simulated to
// horizon on the sample path of seed.
type lemma10Case struct {
	d       int
	p, rho  float64
	horizon float64
	seed    uint64
}

// lemma10Cases span d 2–6, light to near-critical loads and p from a
// one-hop to an all-hops flip law.
var lemma10Cases = []lemma10Case{
	{2, 0.5, 0.3, 600, 1},
	{2, 0.1, 0.9, 800, 2},
	{2, 1, 0.7, 400, 3},
	{2, 0.8, 0.97, 1000, 4},
	{3, 0.5, 0.8, 800, 5},
	{3, 0.25, 0.5, 600, 6},
	{3, 0.9, 0.95, 500, 7},
	{3, 0.15, 0.2, 1000, 8},
	{4, 0.5, 0.6, 600, 9},
	{4, 0.35, 0.9, 500, 10},
	{4, 0.7, 0.05, 1000, 11},
	{4, 1, 0.98, 300, 12},
	{5, 0.5, 0.8, 400, 13},
	{5, 0.2, 0.7, 300, 14},
	{5, 0.6, 0.4, 500, 15},
	{5, 0.95, 0.9, 250, 16},
	{6, 0.5, 0.5, 300, 17},
	{6, 0.3, 0.85, 200, 18},
	{6, 0.8, 0.3, 250, 19},
	{6, 0.1, 0.95, 200, 20},
}

// checkLemma10 runs c's network with FIFO and with processor-sharing servers
// on one sample path and fails at the first of about 200 observations where
// the FIFO network has delivered fewer customers than the PS network, or
// holds more (Lemma 10). The check holds on every path, so it has no tolerance.
func checkLemma10(t *testing.T, c lemma10Case) {
	t.Helper()
	spec := HypercubeSpec(c.d, c.rho/c.p, c.p)
	sp := GenerateSamplePath(spec, c.horizon, c.seed)
	opts := RunOptions{ObserveEvery: c.horizon / 200}
	fifo, ps := RunFIFO(spec, sp, opts), RunPS(spec, sp, opts)
	if len(fifo.Observations) != len(ps.Observations) || len(fifo.Observations) < 199 {
		t.Fatalf("%d FIFO and %d PS observations, want the same number, about 200",
			len(fifo.Observations), len(ps.Observations))
	}
	for i, f := range fifo.Observations {
		p := ps.Observations[i]
		if f.Departures < p.Departures || f.Population > p.Population {
			t.Fatalf("t = %v: FIFO departures %d, population %d; PS departures %d, population %d",
				f.Time, f.Departures, f.Population, p.Departures, p.Population)
		}
	}
}

// TestLemma10OverRandomNetworks checks Lemma 10 pathwise on every case of
// the table.
func TestLemma10OverRandomNetworks(t *testing.T) {
	for _, c := range lemma10Cases {
		t.Run(fmt.Sprintf("d=%d,p=%v,rho=%v", c.d, c.p, c.rho), func(t *testing.T) { checkLemma10(t, c) })
	}
}

// FuzzLemma10 searches for a network and sample path that break Lemma 10.
// It decodes d in 2–6, p in [0.1, 1], rho in [0.05, 0.98] and a horizon in
// [200, 1000] from its integer arguments; the table's cases are its seed
// corpus. CI runs it with
//
//	go test -run '^$' -fuzz FuzzLemma10 -fuzztime 30s ./internal/queuenet
func FuzzLemma10(f *testing.F) {
	unit := func(x float64, lo, hi float64) uint16 { return uint16((x - lo) / (hi - lo) * 65535) }
	for _, c := range lemma10Cases {
		f.Add(uint8(c.d-2), unit(c.p, 0.1, 1), unit(c.rho, 0.05, 0.98), unit(c.horizon, 200, 1000), c.seed)
	}
	f.Fuzz(func(t *testing.T, d uint8, p, rho, horizon uint16, seed uint64) {
		frac := func(x uint16, lo, hi float64) float64 { return lo + (hi-lo)*float64(x)/65535 }
		checkLemma10(t, lemma10Case{
			d:       2 + int(d%5),
			p:       frac(p, 0.1, 1),
			rho:     frac(rho, 0.05, 0.98),
			horizon: frac(horizon, 200, 1000),
			seed:    seed,
		})
	})
}
