package queuenet

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/queueing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// singleServerSpec is an M/D/1 queue expressed as a one-server network.
func singleServerSpec(lambda float64) *Spec {
	return &Spec{
		NumServers:   1,
		ServiceTime:  1,
		ExternalRate: []float64{lambda},
		Transitions:  [][]Transition{nil},
	}
}

// tandemSpec is a two-server tandem: all customers enter server 0 and then
// visit server 1.
func tandemSpec(lambda float64) *Spec {
	return &Spec{
		NumServers:   2,
		ServiceTime:  1,
		ExternalRate: []float64{lambda, 0},
		Transitions:  [][]Transition{{{To: 1, Prob: 1}}, nil},
		Level:        []int{1, 2},
	}
}

func TestSpecValidate(t *testing.T) {
	good := tandemSpec(0.5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Spec{
		{NumServers: 0},
		{NumServers: 1, ServiceTime: 0, ExternalRate: []float64{1}, Transitions: [][]Transition{nil}},
		{NumServers: 1, ServiceTime: 1, ExternalRate: []float64{1, 2}, Transitions: [][]Transition{nil}},
		{NumServers: 1, ServiceTime: 1, ExternalRate: []float64{1}, Transitions: [][]Transition{nil, nil}},
		{NumServers: 1, ServiceTime: 1, ExternalRate: []float64{-1}, Transitions: [][]Transition{nil}},
		{NumServers: 2, ServiceTime: 1, ExternalRate: []float64{1, 0},
			Transitions: [][]Transition{{{To: 5, Prob: 0.5}}, nil}},
		{NumServers: 2, ServiceTime: 1, ExternalRate: []float64{1, 0},
			Transitions: [][]Transition{{{To: 1, Prob: -0.5}}, nil}},
		{NumServers: 2, ServiceTime: 1, ExternalRate: []float64{1, 0},
			Transitions: [][]Transition{{{To: 1, Prob: 0.7}, {To: 1, Prob: 0.7}}, nil}},
		{NumServers: 2, ServiceTime: 1, ExternalRate: []float64{1, 0},
			Transitions: [][]Transition{nil, {{To: 0, Prob: 0.5}}}, Level: []int{1, 2}},
		{NumServers: 1, ServiceTime: math.NaN(), ExternalRate: []float64{1}, Transitions: [][]Transition{nil}},
		{NumServers: 1, ServiceTime: math.Inf(1), ExternalRate: []float64{1}, Transitions: [][]Transition{nil}},
		{NumServers: 1, ServiceTime: math.Inf(-1), ExternalRate: []float64{1}, Transitions: [][]Transition{nil}},
		// A +Inf rate would make GenerateSamplePath append arrivals at t = 0
		// forever.
		{NumServers: 1, ServiceTime: 1, ExternalRate: []float64{math.Inf(1)}, Transitions: [][]Transition{nil}},
		{NumServers: 1, ServiceTime: 1, ExternalRate: []float64{math.NaN()}, Transitions: [][]Transition{nil}},
		{NumServers: 2, ServiceTime: 1, ExternalRate: []float64{1, 0},
			Transitions: [][]Transition{{{To: 1, Prob: math.NaN()}}, nil}},
		// A Level shorter than NumServers must be an error, not an index
		// panic.
		{NumServers: 2, ServiceTime: 1, ExternalRate: []float64{1, 0},
			Transitions: [][]Transition{{{To: 1, Prob: 0.5}}, nil}, Level: []int{1}},
	}
	for i, bad := range cases {
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestTrafficEquationsTandem(t *testing.T) {
	s := tandemSpec(0.6)
	rates := s.TotalArrivalRates()
	if !almostEqual(rates[0], 0.6, 1e-9) || !almostEqual(rates[1], 0.6, 1e-9) {
		t.Fatalf("rates = %v", rates)
	}
	if u := s.Utilizations(); !almostEqual(u[0], 0.6, 1e-9) || !almostEqual(u[1], 0.6, 1e-9) {
		t.Fatalf("utilisations = %v", u)
	}
	if !almostEqual(s.TotalExternalRate(), 0.6, 1e-12) {
		t.Fatal("total external rate wrong")
	}
}

func TestHypercubeSpecMatchesProposition5(t *testing.T) {
	// Proposition 5: under greedy routing the total arrival rate at every
	// hypercube arc equals rho = lambda * p, for any p.
	for _, p := range []float64{0.25, 0.5, 0.8, 1.0} {
		d := 5
		lambda := 1.2
		spec := HypercubeSpec(d, lambda, p)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		rho := lambda * p
		for s, rate := range spec.TotalArrivalRates() {
			if !almostEqual(rate, rho, 1e-9) {
				t.Fatalf("p=%v: arc %d total rate %v, want %v", p, s, rate, rho)
			}
		}
	}
}

func TestHypercubeSpecExternalRates(t *testing.T) {
	// Property A: external rate into an arc of dimension i is
	// lambda*p*(1-p)^(i-1); summed over one node's d arcs times 2^d nodes it
	// accounts for every generated packet that moves at all.
	d := 4
	lambda := 0.9
	p := 0.3
	spec := HypercubeSpec(d, lambda, p)
	perDim := make([]float64, d+1)
	for s := 0; s < spec.NumServers; s++ {
		perDim[spec.Level[s]] += spec.ExternalRate[s]
	}
	nodes := float64(int(1) << uint(d))
	for i := 1; i <= d; i++ {
		want := nodes * lambda * p * math.Pow(1-p, float64(i-1))
		if !almostEqual(perDim[i], want, 1e-9) {
			t.Fatalf("dimension %d external rate %v, want %v", i, perDim[i], want)
		}
	}
	// Total external rate = lambda*2^d*(1-(1-p)^d), the rate of packets with
	// at least one bit to flip.
	wantTotal := nodes * lambda * (1 - math.Pow(1-p, float64(d)))
	if !almostEqual(spec.TotalExternalRate(), wantTotal, 1e-9) {
		t.Fatalf("total external rate %v, want %v", spec.TotalExternalRate(), wantTotal)
	}
}

func TestHypercubeProductFormMatchesProposition12(t *testing.T) {
	// The product-form population of Q̃ is d*2^d*rho/(1-rho), and dividing by
	// lambda*2^d gives the paper's delay bound dp/(1-rho). Note the paper
	// applies Little's law with the full packet generation rate lambda*2^d
	// (packets that need no transmission are included with zero delay).
	d := 6
	p := 0.5
	lambda := 1.6 // rho = 0.8
	spec := HypercubeSpec(d, lambda, p)
	rho := lambda * p
	pop, err := spec.ProductFormMeanPopulation()
	if err != nil {
		t.Fatal(err)
	}
	wantPop := float64(d) * float64(int(1)<<uint(d)) * rho / (1 - rho)
	if !almostEqual(pop, wantPop, 1e-6) {
		t.Fatalf("product-form population %v, want %v", pop, wantPop)
	}
	bound := pop / (lambda * float64(int(1)<<uint(d)))
	wantBound := float64(d) * p / (1 - rho)
	if !almostEqual(bound, wantBound, 1e-9) {
		t.Fatalf("delay bound %v, want %v", bound, wantBound)
	}
}

func TestProductFormUnstable(t *testing.T) {
	spec := singleServerSpec(1.5)
	if _, err := spec.ProductFormMeanPopulation(); err == nil {
		t.Fatal("expected instability error")
	}
	spec2 := &Spec{NumServers: 1, ServiceTime: 1, ExternalRate: []float64{0}, Transitions: [][]Transition{nil}}
	if _, err := spec2.ProductFormMeanDelay(); err == nil {
		t.Fatal("expected error for a network with no external arrivals")
	}
}

func TestSamplePathReproducibleAndLazy(t *testing.T) {
	spec := tandemSpec(0.5)
	a := GenerateSamplePath(spec, 100, 42)
	b := GenerateSamplePath(spec, 100, 42)
	if !reflect.DeepEqual(a.Arrivals, b.Arrivals) {
		t.Fatal("same seed produced different arrival times")
	}
	// Decisions are memoised: asking twice gives the same value, and the two
	// identically-seeded paths agree.
	for k := 0; k < 20; k++ {
		if a.Decision(0, k) != a.Decision(0, k) {
			t.Fatal("decision not memoised")
		}
		if a.Decision(0, k) != b.Decision(0, k) {
			t.Fatal("same seed produced different decisions")
		}
	}
	// Different seeds differ somewhere.
	c := GenerateSamplePath(spec, 100, 43)
	if reflect.DeepEqual(a.Arrivals, c.Arrivals) {
		t.Fatal("different seeds produced identical sample paths")
	}
}

func TestGenerateSamplePathValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for bad spec")
			}
		}()
		GenerateSamplePath(&Spec{NumServers: 0}, 10, 1)
	}()
	// A NaN or +Inf horizon would never end the arrival loop.
	for _, horizon := range []float64{0, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for horizon %v", horizon)
				}
			}()
			GenerateSamplePath(singleServerSpec(0.5), horizon, 1)
		}()
	}
}

func TestFIFOSingleServerMatchesMD1(t *testing.T) {
	spec := singleServerSpec(0.7)
	sp := GenerateSamplePath(spec, 100000, 7)
	res := RunFIFO(spec, sp, RunOptions{Warmup: 5000})
	want, _ := queueing.MD1{Lambda: 0.7}.MeanDelay()
	if math.Abs(res.MeanDelay-want) > 0.05*want {
		t.Fatalf("FIFO M/D/1 delay %v, want %v", res.MeanDelay, want)
	}
	wantN, _ := queueing.MD1{Lambda: 0.7}.MeanNumber()
	if math.Abs(res.MeanPopulation-wantN) > 0.1*wantN {
		t.Fatalf("FIFO M/D/1 population %v, want %v", res.MeanPopulation, wantN)
	}
}

func TestPSSingleServerMatchesProductForm(t *testing.T) {
	// A single PS server with Poisson arrivals and deterministic service is
	// an M/G/1-PS queue: mean population rho/(1-rho), mean delay 1/(1-rho).
	spec := singleServerSpec(0.7)
	sp := GenerateSamplePath(spec, 100000, 8)
	res := RunPS(spec, sp, RunOptions{Warmup: 5000})
	wantN := 0.7 / 0.3
	if math.Abs(res.MeanPopulation-wantN) > 0.1*wantN {
		t.Fatalf("PS population %v, want %v", res.MeanPopulation, wantN)
	}
	wantD := 1 / 0.3
	if math.Abs(res.MeanDelay-wantD) > 0.1*wantD {
		t.Fatalf("PS delay %v, want %v", res.MeanDelay, wantD)
	}
}

func TestLemma7SingleServerDomination(t *testing.T) {
	// Lemma 7: on any fixed arrival sequence, the i-th departure from a
	// deterministic PS server is no earlier than from the FIFO server. In
	// aggregate, cumulative departures under FIFO dominate those under PS at
	// every observation time.
	spec := singleServerSpec(0.85)
	sp := GenerateSamplePath(spec, 20000, 9)
	fifo := RunFIFO(spec, sp, RunOptions{ObserveEvery: 50})
	ps := RunPS(spec, sp, RunOptions{ObserveEvery: 50})
	if len(fifo.Observations) == 0 || len(fifo.Observations) != len(ps.Observations) {
		t.Fatalf("observation counts %d vs %d", len(fifo.Observations), len(ps.Observations))
	}
	for i := range fifo.Observations {
		f, p := fifo.Observations[i], ps.Observations[i]
		if f.Time != p.Time {
			t.Fatal("observation times differ")
		}
		if f.Departures < p.Departures {
			t.Fatalf("t=%v: FIFO departures %d < PS departures %d (violates Lemma 7)",
				f.Time, f.Departures, p.Departures)
		}
		if f.Population > p.Population {
			t.Fatalf("t=%v: FIFO population %d > PS population %d (violates Prop. 11)",
				f.Time, f.Population, p.Population)
		}
	}
	if fifo.MeanDelay > ps.MeanDelay {
		t.Fatalf("FIFO mean delay %v exceeds PS mean delay %v", fifo.MeanDelay, ps.MeanDelay)
	}
}

func TestLemma10HypercubeDomination(t *testing.T) {
	// Lemma 10 / Proposition 11 on the real object of interest: the
	// equivalent network Q of the 4-cube at rho = 0.8. On a common sample
	// path the FIFO network must have delivered at least as many packets as
	// the PS network at every time, and hold at most as many.
	spec := HypercubeSpec(4, 1.6, 0.5)
	sp := GenerateSamplePath(spec, 4000, 10)
	fifo := RunFIFO(spec, sp, RunOptions{ObserveEvery: 20, Warmup: 400})
	ps := RunPS(spec, sp, RunOptions{ObserveEvery: 20, Warmup: 400})
	for i := range fifo.Observations {
		f, p := fifo.Observations[i], ps.Observations[i]
		if f.Departures < p.Departures {
			t.Fatalf("t=%v: FIFO departures %d < PS departures %d", f.Time, f.Departures, p.Departures)
		}
		if f.Population > p.Population {
			t.Fatalf("t=%v: FIFO population %d > PS population %d", f.Time, f.Population, p.Population)
		}
	}
	if fifo.MeanPopulation > ps.MeanPopulation {
		t.Fatalf("FIFO mean population %v exceeds PS mean population %v",
			fifo.MeanPopulation, ps.MeanPopulation)
	}
}

func TestPSHypercubeMatchesProductForm(t *testing.T) {
	// The PS network Q̃ is product form; its simulated mean population must
	// match d*2^d*rho/(1-rho) within simulation noise.
	d := 4
	lambda := 1.2 // rho = 0.6
	spec := HypercubeSpec(d, lambda, 0.5)
	sp := GenerateSamplePath(spec, 30000, 11)
	res := RunPS(spec, sp, RunOptions{Warmup: 2000})
	want, err := spec.ProductFormMeanPopulation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanPopulation-want) > 0.08*want {
		t.Fatalf("PS population %v, product form predicts %v", res.MeanPopulation, want)
	}
}

func TestFIFOHypercubeDelayWithinPaperBounds(t *testing.T) {
	// The FIFO network Q is the hypercube under greedy routing (by the §3.1
	// equivalence); its mean delay must respect Props 12 and 13. The delay
	// reported here is conditional on packets that enter the network (the
	// paper's T also counts stay-at-home packets with zero delay), so we
	// convert before comparing.
	d := 5
	p := 0.5
	lambda := 1.4 // rho = 0.7
	rho := lambda * p
	spec := HypercubeSpec(d, lambda, p)
	sp := GenerateSamplePath(spec, 20000, 12)
	res := RunFIFO(spec, sp, RunOptions{Warmup: 2000})
	// Fraction of generated packets that enter the network.
	enterProb := 1 - math.Pow(1-p, float64(d))
	overallDelay := res.MeanDelay * enterProb
	upper := float64(d) * p / (1 - rho)
	lower := float64(d)*p + p*rho/(2*(1-rho))
	if overallDelay > upper {
		t.Fatalf("measured delay %v exceeds the Prop. 12 bound %v", overallDelay, upper)
	}
	if overallDelay < lower-0.3 {
		t.Fatalf("measured delay %v below the Prop. 13 bound %v", overallDelay, lower)
	}
}

func TestRunDisciplineRejectsBadSpec(t *testing.T) {
	spec := singleServerSpec(0.5)
	sp := GenerateSamplePath(spec, 100, 1)
	bad := &Spec{NumServers: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunFIFO(bad, sp, RunOptions{})
}

// Property: for any stable utilisation, the traffic equations of the
// hypercube spec give exactly rho at every server (Proposition 5), and the
// product-form delay equals dp/(1-rho).
func TestQuickHypercubeTrafficEquations(t *testing.T) {
	f := func(pRaw, rhoRaw uint8) bool {
		p := 0.05 + 0.9*float64(pRaw)/255
		rho := 0.05 + 0.9*float64(rhoRaw)/255
		lambda := rho / p
		d := 4
		spec := HypercubeSpec(d, lambda, p)
		for _, r := range spec.TotalArrivalRates() {
			if math.Abs(r-rho) > 1e-6 {
				return false
			}
		}
		delay, err := spec.ProductFormMeanDelay()
		if err != nil {
			return false
		}
		// ProductFormMeanDelay divides by the rate of packets that enter the
		// network; the paper's bound divides by all generated packets.
		enterProb := 1 - math.Pow(1-p, float64(d))
		paperBound := float64(d) * p / (1 - rho)
		return math.Abs(delay*enterProb-paperBound) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFIFOHypercube(b *testing.B) {
	spec := HypercubeSpec(4, 1.2, 0.5)
	for i := 0; i < b.N; i++ {
		sp := GenerateSamplePath(spec, 500, uint64(i))
		_ = RunFIFO(spec, sp, RunOptions{})
	}
}

func BenchmarkPSHypercube(b *testing.B) {
	spec := HypercubeSpec(4, 1.2, 0.5)
	for i := 0; i < b.N; i++ {
		sp := GenerateSamplePath(spec, 500, uint64(i))
		_ = RunPS(spec, sp, RunOptions{})
	}
}
