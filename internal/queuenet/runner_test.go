package queuenet

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// popAll drains the calendar.
func popAll(c *calendar) []event {
	var out []event
	for len(*c) > 0 {
		out = append(out, c.pop())
	}
	return out
}

// Property: whatever the push order, the calendar pops events in sorted
// (time, seq) order. Times are drawn from a small set so that ties are
// common, and pops are interleaved with the pushes.
func TestQuickCalendarPopsInTimeSeqOrder(t *testing.T) {
	f := func(times []uint8, seqs []uint16, popEvery uint8) bool {
		var c calendar
		var want []event
		for i, tm := range times {
			e := event{time: float64(tm % 16), seq: uint64(i)}
			if i < len(seqs) {
				e.seq = uint64(seqs[i])<<32 | uint64(i) // unique, not push order
			}
			c.push(e)
			want = append(want, e)
			if popEvery > 0 && i%int(popEvery) == 0 {
				// A popped event must be the least pending one.
				got := c.pop()
				if got != slices.MinFunc(want, cmpEvents) {
					return false
				}
				want = slices.DeleteFunc(want, func(x event) bool { return x == got })
			}
		}
		slices.SortFunc(want, cmpEvents)
		return slices.Equal(popAll(&c), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// cmpEvents orders events by (time, seq) independently of event.before.
func cmpEvents(a, b event) int {
	return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.seq, b.seq))
}

// Events at equal times pop in push (seq) order, around earlier and later
// events.
func TestCalendarEqualTimesPopInPushOrder(t *testing.T) {
	var r runner
	r.schedule(3, kObserve, 0, 0)
	for owner := int32(0); owner < 20; owner++ {
		r.schedule(2, kComplete, owner, 0)
		r.schedule(1+float64(owner%2)*2, kArrival, owner, 0)
	}
	var owners []int32
	for _, e := range popAll(&r.cal) {
		if e.time == 2 {
			owners = append(owners, e.owner)
		}
	}
	if len(owners) != 20 {
		t.Fatalf("%d events at time 2, want 20", len(owners))
	}
	for i, o := range owners {
		if o != int32(i) {
			t.Fatalf("events at time 2 popped in owner order %v, want push order", owners)
		}
	}
}

// Pop on an empty calendar panics rather than returning a zero event, which
// would read as an arrival at time 0.
func TestCalendarPopEmptyPanics(t *testing.T) {
	var c calendar
	c.push(event{time: 1})
	c.pop()
	defer func() {
		if recover() == nil {
			t.Fatal("pop on an empty calendar returned an event")
		}
	}()
	c.pop()
}

// observeAt returns a bare runner with an observation scheduled at each of
// times, in that order. Observations touch no server, so the runner needs no
// spec or sample path.
func observeAt(times ...float64) *runner {
	r := &runner{}
	for _, tm := range times {
		r.schedule(tm, kObserve, 0, 0)
	}
	return r
}

// observedTimes lists the clock readings of the observations that fired.
func observedTimes(r *runner) []float64 {
	var out []float64
	for _, o := range r.obs {
		out = append(out, o.Time)
	}
	return out
}

// The run loop fires events in time order whatever the scheduling order, and
// leaves the clock at the horizon, here the last event's time.
func TestRunFiresEventsInTimeOrder(t *testing.T) {
	r := observeAt(5, 1, 3, 2, 4)
	r.run(5)
	if got := observedTimes(r); !slices.Equal(got, []float64{1, 2, 3, 4, 5}) {
		t.Fatalf("events fired at %v, want 1..5 in order", got)
	}
	if r.now != 5 {
		t.Fatalf("clock = %v, want 5", r.now)
	}
}

// A run stops before the first event after the horizon with the clock at the
// horizon; the events left on the calendar fire on a later run.
func TestRunStopsAtHorizon(t *testing.T) {
	r := observeAt(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	r.run(5.5)
	if n := len(r.obs); n != 5 {
		t.Fatalf("%d events fired by 5.5, want 5", n)
	}
	if r.now != 5.5 {
		t.Fatalf("clock = %v, want the horizon 5.5", r.now)
	}
	r.run(100)
	if got := observedTimes(r); !slices.Equal(got, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("events fired at %v, want 1..10 in order", got)
	}
}

// A run over an empty calendar still moves the clock to the horizon.
func TestRunEmptyCalendarAdvancesClock(t *testing.T) {
	var r runner
	r.run(42)
	if r.now != 42 {
		t.Fatalf("clock = %v, want 42", r.now)
	}
}

// A NaN service time would put completions at NaN times, which compare false
// with everything and break the calendar's order. Both disciplines refuse
// such a spec before scheduling anything.
func TestRunNaNServiceTimePanics(t *testing.T) {
	spec := singleServerSpec(0.5)
	sp := GenerateSamplePath(spec, 100, 1)
	bad := *spec
	bad.ServiceTime = math.NaN()
	for name, run := range map[string]func(*Spec, *SamplePath, RunOptions) Result{"FIFO": RunFIFO, "PS": RunPS} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ran a spec with a NaN service time", name)
				}
			}()
			run(&bad, sp, RunOptions{})
		}()
	}
}

// fifoRunner is a runner over one unit-service FIFO server whose customers
// leave the network after service. The server's first n routing decisions
// are drawn in advance.
func fifoRunner(n int) *runner {
	spec, sp := singleServerPath(1)
	sp.Decision(0, n)
	return &runner{spec: spec, sp: sp, servers: make([]serverState, 1)}
}

// arrive puts a customer that arrived at time a into server 0's queue.
func (r *runner) arrive(a float64) {
	r.inNetwork++
	r.enqueue(0, r.newCustomer(a))
}

// A FIFO server serves its queue in arrival order.
func TestFIFOQueueServesInArrivalOrder(t *testing.T) {
	r := fifoRunner(100)
	for i := 0; i < 100; i++ {
		r.arrive(float64(i))
	}
	r.run(100)
	if r.departed != 100 || r.servers[0].head != nil {
		t.Fatalf("%d departures by t = 100, want 100 and an empty queue", r.departed)
	}
	// departNetwork recycles customers in departure order.
	for i, c := range r.free {
		if c.arrival != float64(i) {
			t.Fatalf("departure %d arrived at %v, want %d", i, c.arrival, i)
		}
	}
}

// Interleaved arrivals and completions keep FIFO order, through queues
// that drain to empty and refill with recycled customers.
func TestFIFOQueueEmptiesAndRefills(t *testing.T) {
	r := fifoRunner(1000)
	next, expect := 0, 0
	complete := func() {
		if got := r.servers[0].head.arrival; got != float64(expect) {
			t.Fatalf("customer %v served, want %d", got, expect)
		}
		expect++
		r.run(r.cal[0].time) // the server's one pending completion
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			r.arrive(float64(next))
			next++
		}
		for i := 0; i < 2; i++ {
			complete()
		}
		if round%50 == 49 {
			for r.servers[0].head != nil {
				complete()
			}
		}
	}
	for r.servers[0].head != nil {
		complete()
	}
	if expect != next || r.departed != int64(next) || len(r.cal) != 0 {
		t.Fatalf("served %d, departed %d of %d customers; %d events pending",
			expect, r.departed, next, len(r.cal))
	}
}

// Once the calendar, the free list and the routing decisions have grown, a
// FIFO cycle of arrivals, services and departures allocates nothing.
func TestFIFOSteadyStateZeroAllocs(t *testing.T) {
	r := fifoRunner(16 * 110)
	cycle := func() {
		for i := 0; i < 16; i++ {
			r.arrive(r.now)
		}
		r.run(r.now + 16)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-state FIFO cycle allocates %v times, want 0", allocs)
	}
	if r.departed != 16*102 {
		t.Fatalf("%d departures, want %d", r.departed, 16*102)
	}
}

// singleServerPath is a sample path of a one-server network with the given
// external arrival times.
func singleServerPath(horizon float64, arrivals ...float64) (*Spec, *SamplePath) {
	spec := singleServerSpec(0)
	sp := GenerateSamplePath(spec, horizon, 1)
	sp.Arrivals[0] = arrivals
	return spec, sp
}

// A PS completion superseded by a later arrival never fires. The arrival at
// 0.5 schedules a completion at 1.5; the arrival at 0.7 replaces it with one
// at 2.3, and the second customer leaves alone at 2.5.
func TestPSSupersededCompletionNeverFires(t *testing.T) {
	spec, sp := singleServerPath(2, 0.5, 0.7)
	if res := RunPS(spec, sp, RunOptions{}); res.Departed != 0 {
		t.Fatalf("by t = 2: %d departures, want 0 (the completion at 1.5 was superseded)", res.Departed)
	}
	spec, sp = singleServerPath(3, 0.5, 0.7)
	res := RunPS(spec, sp, RunOptions{})
	if res.Departed != 2 || math.Abs(res.MeanDelay-1.8) > 1e-12 {
		t.Fatalf("by t = 3: %d departures with mean delay %v, want 2 with 1.8", res.Departed, res.MeanDelay)
	}
}

// An event at exactly the horizon fires, one after it does not, and the
// clock ends at the horizon, which closes the time average of the
// population. The unit-service FIFO server holds one customer over [1, 2]
// and one over [4, 5]. The observation at 4 fires in every case; it sees the
// arrival at 4, whose seq is lower.
func TestRunHorizon(t *testing.T) {
	cases := []struct {
		horizon  float64
		departed int64
		meanPop  float64
	}{
		// The arrival and the observation at 4 fire.
		{4, 1, 1.0 / 4},
		// The second completion, at 5, is after the horizon.
		{4.5, 1, 1.5 / 4.5},
		// The calendar empties at 5 and the clock runs on to 6.
		{6, 2, 2.0 / 6},
	}
	obs := []Observation{{Time: 4, Departures: 1, Population: 1}}
	for _, tc := range cases {
		spec, sp := singleServerPath(tc.horizon, 1, 4)
		res := RunFIFO(spec, sp, RunOptions{ObserveEvery: 4})
		if res.Departed != tc.departed || math.Abs(res.MeanPopulation-tc.meanPop) > 1e-12 {
			t.Errorf("horizon %v: departed %d, mean population %v; want %d, %v",
				tc.horizon, res.Departed, res.MeanPopulation, tc.departed, tc.meanPop)
		}
		if !slices.Equal(res.Observations, obs) {
			t.Errorf("horizon %v: observations %v, want %v", tc.horizon, res.Observations, obs)
		}
	}
}

// TestE5SamplePathPinned pins RunFIFO and RunPS bit for bit on E5's quick
// configuration (the 4-cube's network Q at rho = 0.8, horizon 2000, seed 1,
// an observation every 20 time units and warmup 400). The values were
// recorded from the general-purpose event calendar this runner replaced;
// the observation times are the exact multiples of 20.
func TestE5SamplePathPinned(t *testing.T) {
	spec := HypercubeSpec(4, 1.6, 0.5)
	sp := GenerateSamplePath(spec, 2000, 1)
	opts := RunOptions{ObserveEvery: 2000.0 / 100, Warmup: 2000.0 / 5}
	for _, tc := range []struct {
		name              string
		run               func(*Spec, *SamplePath, RunOptions) Result
		population, delay uint64
		departed          int64
		obs               [][2]int64 // departures, population
	}{
		{"FIFO", RunFIFO, 0x4061acb4113a6a41, 0x401765c9231c5ed4, 47921, [][2]int64{
			{366, 87}, {832, 127}, {1308, 122}, {1780, 144}, {2266, 159}, {2730, 153}, {3206, 131}, {3670, 142},
			{4170, 121}, {4646, 146}, {5134, 141}, {5614, 125}, {6101, 137}, {6573, 138}, {7041, 115}, {7489, 134},
			{7947, 144}, {8441, 148}, {8944, 169}, {9459, 163}, {9947, 172}, {10453, 147}, {10936, 132}, {11400, 144},
			{11879, 108}, {12354, 120}, {12778, 132}, {13243, 150}, {13735, 155}, {14190, 187}, {14700, 191}, {15214, 168},
			{15710, 144}, {16190, 138}, {16682, 139}, {17138, 122}, {17608, 126}, {18072, 122}, {18562, 140}, {19034, 137},
			{19507, 128}, {19987, 141}, {20484, 139}, {20947, 140}, {21437, 151}, {21921, 160}, {22397, 154}, {22891, 120},
			{23340, 130}, {23832, 153}, {24322, 123}, {24800, 148}, {25263, 157}, {25753, 156}, {26208, 177}, {26724, 168},
			{27228, 143}, {27686, 161}, {28174, 132}, {28667, 149}, {29152, 162}, {29649, 159}, {30148, 158}, {30632, 152},
			{31095, 128}, {31548, 169}, {32044, 147}, {32557, 146}, {33046, 91}, {33525, 125}, {33977, 108}, {34429, 107},
			{34896, 101}, {35365, 162}, {35863, 147}, {36351, 141}, {36840, 134}, {37330, 147}, {37799, 130}, {38251, 118},
			{38743, 140}, {39221, 153}, {39713, 178}, {40207, 148}, {40698, 163}, {41190, 138}, {41679, 145}, {42148, 117},
			{42619, 126}, {43089, 116}, {43551, 134}, {44043, 144}, {44520, 158}, {45003, 167}, {45493, 148}, {45961, 158},
			{46461, 144}, {46941, 142}, {47435, 129}, {47921, 110},
		}},
		{"PS", RunPS, 0x40706cd6de110409, 0x40258909ca74a73f, 47804, [][2]int64{
			{293, 160}, {756, 203}, {1220, 210}, {1667, 257}, {2152, 273}, {2620, 263}, {3059, 278}, {3543, 269},
			{4054, 237}, {4517, 275}, {4999, 276}, {5504, 235}, {5996, 242}, {6458, 253}, {6951, 205}, {7419, 204},
			{7854, 237}, {8323, 266}, {8817, 296}, {9316, 306}, {9831, 288}, {10329, 271}, {10815, 253}, {11294, 250},
			{11769, 218}, {12247, 227}, {12687, 223}, {13121, 272}, {13625, 265}, {14088, 289}, {14573, 318}, {15068, 314},
			{15546, 308}, {16061, 267}, {16537, 284}, {17029, 231}, {17486, 248}, {17981, 213}, {18465, 237}, {18915, 256},
			{19398, 237}, {19905, 223}, {20391, 232}, {20844, 243}, {21314, 274}, {21791, 290}, {22255, 296}, {22760, 251},
			{23246, 224}, {23715, 270}, {24199, 246}, {24685, 263}, {25158, 262}, {25598, 311}, {26055, 330}, {26553, 339},
			{27057, 314}, {27549, 298}, {28036, 270}, {28528, 288}, {28988, 326}, {29501, 307}, {30006, 300}, {30490, 294},
			{30980, 243}, {31443, 274}, {31911, 280}, {32396, 307}, {32914, 223}, {33424, 226}, {33893, 192}, {34344, 192},
			{34841, 156}, {35284, 243}, {35752, 258}, {36234, 258}, {36722, 252}, {37212, 265}, {37683, 246}, {38140, 229},
			{38633, 250}, {39084, 290}, {39574, 317}, {40080, 275}, {40574, 287}, {41049, 279}, {41523, 301}, {42026, 239},
			{42496, 249}, {42972, 233}, {43427, 258}, {43939, 248}, {44421, 257}, {44893, 277}, {45385, 256}, {45853, 266},
			{46324, 281}, {46833, 250}, {47298, 266}, {47804, 227},
		}},
	} {
		res := tc.run(spec, sp, opts)
		if got := math.Float64bits(res.MeanPopulation); got != tc.population {
			t.Errorf("%s: MeanPopulation %v (%#x), want %v", tc.name, res.MeanPopulation, got, math.Float64frombits(tc.population))
		}
		if got := math.Float64bits(res.MeanDelay); got != tc.delay {
			t.Errorf("%s: MeanDelay %v (%#x), want %v", tc.name, res.MeanDelay, got, math.Float64frombits(tc.delay))
		}
		if res.Departed != tc.departed {
			t.Errorf("%s: Departed %d, want %d", tc.name, res.Departed, tc.departed)
		}
		if len(res.Observations) != len(tc.obs) {
			t.Fatalf("%s: %d observations, want %d", tc.name, len(res.Observations), len(tc.obs))
		}
		for k, o := range res.Observations {
			want := Observation{Time: 20 * float64(k+1), Departures: tc.obs[k][0], Population: tc.obs[k][1]}
			if math.Float64bits(o.Time) != math.Float64bits(want.Time) || o != want {
				t.Errorf("%s: observation %d is %+v, want %+v", tc.name, k, o, want)
			}
		}
	}
}
