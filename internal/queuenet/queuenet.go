// Package queuenet implements the paper's central proof device: the
// equivalent queueing network. Under greedy dimension-order routing the
// d-cube behaves as a levelled network Q of deterministic unit-service FIFO
// servers (one per arc) with Markovian routing (§3.1, Properties A-C). The
// paper bounds the delay of Q by replacing every FIFO server with a
// Processor-Sharing server, obtaining a product-form network Q̃ whose
// population stochastically dominates that of Q (Lemmas 7-10, Proposition
// 11).
//
// This package builds the specification of Q from the model parameters,
// solves its traffic equations and product-form solutions analytically, and
// simulates both the FIFO and the PS versions on a common sample path
// (identical external arrivals and identical per-server routing decision
// sequences), which is exactly the coupling used in the paper's sample-path
// lemmas. The experiments use it to verify the domination B_FIFO(t) >=
// B_PS(t) and the product-form prediction for Q̃.
package queuenet

import (
	"fmt"
	"math"

	"repro/internal/hypercube"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Transition is one Markovian routing alternative out of a server.
type Transition struct {
	To   int
	Prob float64
}

// Spec describes a queueing network with deterministic servers and Markovian
// routing. The probability of exiting the network after service at server s
// is one minus the sum of the transition probabilities out of s.
type Spec struct {
	// NumServers is the number of servers ("arcs").
	NumServers int
	// ServiceTime is the deterministic service requirement (1 in the paper).
	ServiceTime float64
	// ExternalRate is the external Poisson arrival rate into each server.
	ExternalRate []float64
	// Transitions lists, for each server, the Markovian routing
	// alternatives; probabilities must be non-negative and sum to at most 1.
	Transitions [][]Transition
	// Level optionally assigns each server to a level of the levelled
	// network; transitions must then go strictly upwards. A nil Level skips
	// the levelled check.
	Level []int
}

// Validate checks the structural invariants of the specification.
func (s *Spec) Validate() error {
	if s.NumServers <= 0 {
		return fmt.Errorf("queuenet: NumServers must be positive, got %d", s.NumServers)
	}
	if !(s.ServiceTime > 0) || math.IsInf(s.ServiceTime, 1) {
		return fmt.Errorf("queuenet: ServiceTime must be positive and finite, got %v", s.ServiceTime)
	}
	if len(s.ExternalRate) != s.NumServers {
		return fmt.Errorf("queuenet: ExternalRate has %d entries, want %d", len(s.ExternalRate), s.NumServers)
	}
	if len(s.Transitions) != s.NumServers {
		return fmt.Errorf("queuenet: Transitions has %d entries, want %d", len(s.Transitions), s.NumServers)
	}
	if s.Level != nil && len(s.Level) != s.NumServers {
		return fmt.Errorf("queuenet: Level has %d entries, want %d", len(s.Level), s.NumServers)
	}
	for i, r := range s.ExternalRate {
		if !(r >= 0) || math.IsInf(r, 1) {
			return fmt.Errorf("queuenet: external rate %v at server %d must be finite and non-negative", r, i)
		}
	}
	for i, ts := range s.Transitions {
		sum := 0.0
		for _, tr := range ts {
			if tr.To < 0 || tr.To >= s.NumServers {
				return fmt.Errorf("queuenet: server %d routes to invalid server %d", i, tr.To)
			}
			if !(tr.Prob >= 0) {
				return fmt.Errorf("queuenet: transition probability %v at server %d must be non-negative", tr.Prob, i)
			}
			if s.Level != nil && s.Level[tr.To] <= s.Level[i] {
				return fmt.Errorf("queuenet: transition %d->%d does not go up a level", i, tr.To)
			}
			sum += tr.Prob
		}
		if sum > 1+1e-9 {
			return fmt.Errorf("queuenet: transition probabilities out of server %d sum to %v > 1", i, sum)
		}
	}
	return nil
}

// TotalExternalRate returns the sum of external arrival rates.
func (s *Spec) TotalExternalRate() float64 {
	total := 0.0
	for _, r := range s.ExternalRate {
		total += r
	}
	return total
}

// TotalArrivalRates solves the traffic equations lambda = external + lambda*P
// by fixed-point iteration; for the levelled (feed-forward) networks of the
// paper the iteration converges in at most "number of levels" passes.
func (s *Spec) TotalArrivalRates() []float64 {
	rates := make([]float64, s.NumServers)
	copy(rates, s.ExternalRate)
	next := make([]float64, s.NumServers)
	for iter := 0; iter < s.NumServers+2; iter++ {
		copy(next, s.ExternalRate)
		for i, ts := range s.Transitions {
			for _, tr := range ts {
				next[tr.To] += rates[i] * tr.Prob
			}
		}
		maxDiff := 0.0
		for i := range rates {
			if d := math.Abs(next[i] - rates[i]); d > maxDiff {
				maxDiff = d
			}
		}
		rates, next = next, rates
		if maxDiff < 1e-12 {
			break
		}
	}
	return rates
}

// Utilizations returns the per-server utilisation rho_s = lambda_s * service.
func (s *Spec) Utilizations() []float64 {
	rates := s.TotalArrivalRates()
	util := make([]float64, len(rates))
	for i, r := range rates {
		util[i] = r * s.ServiceTime
	}
	return util
}

// ProductFormMeanPopulation returns the steady-state mean total population of
// the processor-sharing (product-form) version of the network: the sum of
// rho/(1-rho) over servers (used in the proofs of Props 12 and 17).
func (s *Spec) ProductFormMeanPopulation() (float64, error) {
	total := 0.0
	for _, u := range s.Utilizations() {
		st := queueing.ProductFormStation{Utilization: u}
		m, err := st.MeanNumber()
		if err != nil {
			return math.Inf(1), err
		}
		total += m
	}
	return total, nil
}

// ProductFormMeanDelay applies Little's law to the product-form population.
func (s *Spec) ProductFormMeanDelay() (float64, error) {
	pop, err := s.ProductFormMeanPopulation()
	if err != nil {
		return pop, err
	}
	ext := s.TotalExternalRate()
	if ext <= 0 {
		return 0, fmt.Errorf("queuenet: network has no external arrivals")
	}
	return pop / ext, nil
}

// HypercubeSpec builds the equivalent network Q of the d-cube under greedy
// dimension-order routing with per-node rate lambda and bit-flip probability
// p, following Properties A-C of §3.1:
//
//   - the external stream into arc (x, x⊕e_i) is Poisson with rate
//     lambda·p·(1-p)^(i-1);
//   - after service at (y, y⊕e_i), a customer joins the arc of dimension
//     j > i leaving node y⊕e_i with probability p·(1-p)^(j-i-1), and exits
//     with probability (1-p)^(d-i).
func HypercubeSpec(d int, lambda, p float64) *Spec {
	cube := hypercube.New(d)
	n := cube.NumArcs()
	spec := &Spec{
		NumServers:   n,
		ServiceTime:  1,
		ExternalRate: make([]float64, n),
		Transitions:  make([][]Transition, n),
		Level:        make([]int, n),
	}
	for idx := 0; idx < n; idx++ {
		arc := cube.ArcAt(idx)
		i := int(arc.Dim)
		spec.Level[idx] = i
		spec.ExternalRate[idx] = lambda * p * math.Pow(1-p, float64(i-1))
		next := arc.To // node y ⊕ e_i
		var ts []Transition
		for j := i + 1; j <= d; j++ {
			prob := p * math.Pow(1-p, float64(j-i-1))
			if prob <= 0 {
				continue
			}
			to := cube.ArcIndex(cube.Arc(next, hypercube.Dimension(j)))
			ts = append(ts, Transition{To: to, Prob: prob})
		}
		spec.Transitions[idx] = ts
	}
	return spec
}

// SamplePath is the common randomness shared by the FIFO and PS simulations:
// the external arrival times into every server and, for every server, the
// sequence of routing decisions indexed by service-completion order (-1 means
// "exit the network"). Identifying routing decisions by order rather than by
// customer identity is legitimate because routing is Markovian, and it is the
// coupling used in the proof of Lemma 10. Decision sequences are materialised
// lazily: both disciplines read the k-th decision of a server through
// Decision, so they always observe identical values no matter how many
// decisions each run consumes.
type SamplePath struct {
	Arrivals  [][]float64
	Horizon   float64
	spec      *Spec
	decisions [][]int
	decRNG    []*xrand.Rand
}

// GenerateSamplePath draws a sample path for the given specification up to
// the horizon.
func GenerateSamplePath(spec *Spec, horizon float64, seed uint64) *SamplePath {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		panic("queuenet: horizon must be positive and finite")
	}
	sp := &SamplePath{
		Arrivals:  make([][]float64, spec.NumServers),
		Horizon:   horizon,
		spec:      spec,
		decisions: make([][]int, spec.NumServers),
		decRNG:    make([]*xrand.Rand, spec.NumServers),
	}
	for s := 0; s < spec.NumServers; s++ {
		sp.decRNG[s] = xrand.NewStream(seed^0x9e3779b97f4a7c15, uint64(s))
		rate := spec.ExternalRate[s]
		if rate <= 0 {
			continue
		}
		rng := xrand.NewStream(seed, uint64(s))
		t := 0.0
		for {
			t += rng.Exp(rate)
			if t > horizon {
				break
			}
			sp.Arrivals[s] = append(sp.Arrivals[s], t)
		}
	}
	return sp
}

// Decision returns the k-th routing decision at server s (0-based), drawing
// and memoising further decisions as needed so that every run over this
// sample path sees the same sequence.
func (sp *SamplePath) Decision(s, k int) int {
	for len(sp.decisions[s]) <= k {
		sp.decisions[s] = append(sp.decisions[s], drawDecision(sp.spec, s, sp.decRNG[s]))
	}
	return sp.decisions[s][k]
}

// drawDecision samples the next server (or -1 for exit) after a service
// completion at server s.
func drawDecision(spec *Spec, s int, rng *xrand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for _, tr := range spec.Transitions[s] {
		acc += tr.Prob
		if u < acc {
			return tr.To
		}
	}
	return -1
}

// Observation is a time point at which both simulations report their state.
type Observation struct {
	Time       float64
	Departures int64
	Population int64
}

// Result summarises one simulation run over a sample path.
type Result struct {
	// Observations are the sampled (time, cumulative departures, population)
	// triples, at the times requested in RunOptions.
	Observations []Observation
	// MeanDelay is the average time from external arrival to network exit
	// over the Departed customers.
	MeanDelay float64
	// MeanPopulation is the time-averaged total population over
	// [warmup, horizon].
	MeanPopulation float64
	// Departed is the total number of customers that left the network
	// before the horizon.
	Departed int64
}

// RunOptions controls a simulation run.
type RunOptions struct {
	// ObserveEvery requests an Observation every so many time units
	// (0 disables observations).
	ObserveEvery float64
	// Warmup is discarded from the time-averaged statistics.
	Warmup float64
}

// customer tracks one packet travelling through the network. Customers are
// recycled through a free list when they leave the network, so steady-state
// simulation does not allocate per arrival.
type customer struct {
	arrival   float64
	remaining float64   // PS only
	next      *customer // FIFO only: the next customer in the server's queue
}

// RunFIFO simulates the network with FIFO servers on the given sample path.
func RunFIFO(spec *Spec, sp *SamplePath, opts RunOptions) Result {
	return runDiscipline(spec, sp, opts, false)
}

// RunPS simulates the network with Processor-Sharing servers on the same
// sample path.
func RunPS(spec *Spec, sp *SamplePath, opts RunOptions) Result {
	return runDiscipline(spec, sp, opts, true)
}

type serverState struct {
	// FIFO state: the customer in service heads a queue linked through
	// customer.next.
	head, tail *customer
	// PS state. gen counts the server's completion reschedules; a completion
	// event scheduled under an older gen has been superseded.
	customers  []*customer
	lastUpdate float64
	gen        uint32
	// Shared. The pending external arrival is sp.Arrivals[s][nextArrival];
	// its seq is arrSeq+nextArrival.
	decisionsUsed int
	nextArrival   int
	arrSeq        uint64
}

// Event kinds of the runner.
const (
	kArrival uint8 = iota
	kComplete
	kObserve
	kWarmup
)

// event is one calendar entry. owner is the server index (unused for
// observations and the warmup reset); gen is the server's gen when a PS
// completion was scheduled.
type event struct {
	time  float64
	seq   uint64
	owner int32
	gen   uint32
	kind  uint8
}

// before orders events by (time, seq). Seqs are unique, so this is a total
// order and the pop sequence does not depend on the heap's layout.
func (e *event) before(o *event) bool {
	return e.time < o.time || (e.time == o.time && e.seq < o.seq)
}

// calendar is a binary min-heap of events under before.
type calendar []event

func (c *calendar) push(e event) {
	h := append(*c, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*c = h
}

func (c *calendar) pop() event {
	h := *c
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*c = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// runner holds the state of one simulation run over a sample path.
//
// Every event carries a seq, and simultaneous events fire in seq order. The
// seqs are those of a calendar that schedules every external arrival up
// front in server order (server s's j-th arrival gets arrSeq+j), then the
// observations, then the warmup reset, and numbers each later event in
// scheduling order. Arrivals are pushed lazily, one pending arrival per
// server, so the heap holds about two events per server; since the pending
// arrival is always its server's earliest, events still fire in exactly
// that calendar's order.
type runner struct {
	spec *Spec
	sp   *SamplePath
	ps   bool
	cal  calendar
	now  float64
	seq  uint64 // seq of the next scheduled event

	servers    []serverState
	population stats.TimeWeighted
	inNetwork  int64
	departed   int64
	delaySum   float64
	free       []*customer // recycled customers
	obs        []Observation
}

func (r *runner) schedule(t float64, kind uint8, owner int32, gen uint32) {
	r.cal.push(event{time: t, seq: r.seq, owner: owner, gen: gen, kind: kind})
	r.seq++
}

// pushArrival schedules server s's next external arrival, if any.
func (r *runner) pushArrival(s int) {
	st := &r.servers[s]
	if j := st.nextArrival; j < len(r.sp.Arrivals[s]) {
		r.cal.push(event{time: r.sp.Arrivals[s][j], seq: st.arrSeq + uint64(j), owner: int32(s), kind: kArrival})
	}
}

// run fires events in (time, seq) order until the calendar is empty or the
// next event is after horizon, skipping superseded PS completions, and ends
// with the clock at horizon.
func (r *runner) run(horizon float64) {
	for len(r.cal) > 0 && r.cal[0].time <= horizon {
		e := r.cal.pop()
		if e.kind == kComplete && e.gen != r.servers[e.owner].gen {
			continue
		}
		r.now = e.time
		r.handle(e)
	}
	r.now = horizon
}

func (r *runner) newCustomer(arrival float64) *customer {
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		c.arrival = arrival
		c.remaining = 0
		return c
	}
	return &customer{arrival: arrival}
}

func (r *runner) nextDecision(s int) int {
	st := &r.servers[s]
	d := r.sp.Decision(s, st.decisionsUsed)
	st.decisionsUsed++
	return d
}

func (r *runner) departNetwork(c *customer) {
	r.inNetwork--
	r.population.Set(r.now, float64(r.inNetwork))
	r.departed++
	r.delaySum += r.now - c.arrival
	r.free = append(r.free, c)
}

// handle dispatches one live event.
func (r *runner) handle(e event) {
	switch e.kind {
	case kArrival:
		s := int(e.owner)
		r.servers[s].nextArrival++
		r.pushArrival(s)
		c := r.newCustomer(r.now)
		r.inNetwork++
		r.population.Set(r.now, float64(r.inNetwork))
		r.enqueue(s, c)
	case kComplete:
		if r.ps {
			r.psComplete(int(e.owner))
		} else {
			r.fifoComplete(int(e.owner))
		}
	case kObserve:
		r.obs = append(r.obs, Observation{
			Time:       r.now,
			Departures: r.departed,
			Population: r.inNetwork,
		})
	case kWarmup:
		r.population.Reset(r.now, float64(r.inNetwork))
	default:
		panic(fmt.Sprintf("queuenet: unknown event kind %d", e.kind))
	}
}

// route sends a customer that finished service at server s to its next
// server or out of the network.
func (r *runner) route(s int, c *customer) {
	if to := r.nextDecision(s); to < 0 {
		r.departNetwork(c)
	} else {
		r.enqueue(to, c)
	}
}

func (r *runner) enqueue(s int, c *customer) {
	st := &r.servers[s]
	if r.ps {
		r.psUpdateWork(s)
		c.remaining = r.spec.ServiceTime
		st.customers = append(st.customers, c)
		r.psReschedule(s)
		return
	}
	if st.head == nil {
		st.head, st.tail = c, c
		r.schedule(r.now+r.spec.ServiceTime, kComplete, int32(s), 0)
	} else {
		st.tail.next = c
		st.tail = c
	}
}

// FIFO machinery ---------------------------------------------------------

func (r *runner) fifoComplete(s int) {
	st := &r.servers[s]
	c := st.head
	st.head, c.next = c.next, nil
	if st.head != nil {
		r.schedule(r.now+r.spec.ServiceTime, kComplete, int32(s), 0)
	}
	r.route(s, c)
}

// PS machinery -----------------------------------------------------------

func (r *runner) psUpdateWork(s int) {
	st := &r.servers[s]
	n := len(st.customers)
	if n > 0 {
		elapsed := r.now - st.lastUpdate
		if elapsed > 0 {
			share := elapsed / float64(n)
			for _, c := range st.customers {
				c.remaining -= share
			}
		}
	}
	st.lastUpdate = r.now
}

func (r *runner) psComplete(s int) {
	st := &r.servers[s]
	r.psUpdateWork(s)
	// Find the customer with the least remaining work (ties: first in
	// slice order, which is arrival order).
	best := -1
	for i, c := range st.customers {
		if best < 0 || c.remaining < st.customers[best].remaining-1e-15 {
			best = i
		}
	}
	if best < 0 {
		panic("queuenet: PS completion with no customers")
	}
	c := st.customers[best]
	st.customers = append(st.customers[:best], st.customers[best+1:]...)
	r.psReschedule(s)
	r.route(s, c)
}

// psReschedule supersedes server s's pending completion, if any, and
// schedules the completion of its customer with the least remaining work.
func (r *runner) psReschedule(s int) {
	st := &r.servers[s]
	st.gen++
	if len(st.customers) == 0 {
		return
	}
	minRemaining := math.Inf(1)
	for _, c := range st.customers {
		if c.remaining < minRemaining {
			minRemaining = c.remaining
		}
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	r.schedule(r.now+minRemaining*float64(len(st.customers)), kComplete, int32(s), st.gen)
}

func runDiscipline(spec *Spec, sp *SamplePath, opts RunOptions, ps bool) Result {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	r := &runner{
		spec:    spec,
		sp:      sp,
		ps:      ps,
		servers: make([]serverState, spec.NumServers),
	}
	r.population.Set(0, 0)
	for s := range r.servers {
		r.servers[s].arrSeq = r.seq
		r.seq += uint64(len(sp.Arrivals[s]))
		r.pushArrival(s)
	}
	if opts.ObserveEvery > 0 {
		for t := opts.ObserveEvery; t <= sp.Horizon+1e-9; t += opts.ObserveEvery {
			r.schedule(t, kObserve, 0, 0)
		}
	}
	if opts.Warmup > 0 {
		r.schedule(opts.Warmup, kWarmup, 0, 0)
	}

	r.run(sp.Horizon)
	res := Result{Observations: r.obs, MeanPopulation: r.population.MeanAt(r.now), Departed: r.departed}
	if r.departed > 0 {
		res.MeanDelay = r.delaySum / float64(r.departed)
	}
	return res
}
