package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"ccba"
	"ccba/internal/aba"
	"ccba/internal/acs"
	"ccba/internal/cluster"
	"ccba/internal/core"
	"ccba/internal/crypto/pki"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/obs"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
)

// minTraced is the fewest instances a traced run executes: two cycles of
// every workload's cases.
const minTraced = 6

// schedKeys names the event schedulers in per-layer metric names.
var schedKeys = []struct {
	name ccba.SchedName
	mode netsim.SchedMode
	key  string
}{
	{ccba.SchedFIFO, netsim.SchedFIFO, "fifo"},
	{ccba.SchedRandom, netsim.SchedRandom, "random"},
	{ccba.SchedAdvDelay, netsim.SchedAdvDelay, "adv-delay"},
}

// schedStats is the event runtime's share of the instances run under one
// scheduler.
type schedStats struct {
	instances         int
	run, self         time.Duration
	deliveries, links int
}

// tracer accumulates the per-layer measurements of a traced run.
type tracer struct {
	w         *workload
	instances int

	incl, self [numLayers]time.Duration
	fm         fmineStats
	node       nodeStats
	rounds     int
	cache      int
	sched      map[ccba.SchedName]*schedStats

	tp        transportStats
	dial, run time.Duration
	barriers  []float64
	// cpu is the live cluster's traced CPU seconds per module, from the
	// traced run's CPU profile.
	cpu map[string]float64

	gcCPU    float64
	gcCycles uint64
}

func newTracer(w *workload) *tracer {
	t := &tracer{w: w, sched: map[ccba.SchedName]*schedStats{}}
	for _, s := range schedKeys {
		t.sched[s.name] = &schedStats{}
	}
	return t
}

// gcSamples reads the Go runtime's cumulative GC CPU time and cycle count.
func gcSamples() (cpu float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		cpu = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		cycles = s[1].Value.Uint64()
	}
	return cpu, cycles
}

// instance runs cfg once, assembled from public pieces with every layer
// wrapped, and folds its spans and counters into t. A non-nil tap collects
// the messages the instance sends.
func (t *tracer) instance(cfg ccba.Config, tap *capture) outcome {
	cpu0, cyc0 := gcSamples()
	var o outcome
	switch t.w.kind {
	case lockstep:
		sp := &spans{}
		sp.begin(layInstance)
		var cache int
		o, cache = runLockstepTraced(cfg, sp, &t.fm, &t.node, tap)
		sp.unwind()
		t.cache += cache
		t.rounds += o.c.rounds
		t.foldSpans(sp)
	case event:
		sp := &spans{}
		sp.begin(layInstance)
		links := t.node.links
		o = runEventTraced(cfg, sp, &t.fm, &t.node, tap)
		sp.unwind()
		t.foldSpans(sp)
		if s := t.sched[cfg.Sched]; s != nil {
			s.instances++
			s.run += sp.incl[layRun]
			s.self += sp.self[layRun]
			s.deliveries += o.c.deliveries
			s.links += t.node.links - links
		}
	case live:
		var log obs.TimingLog
		var dial, run time.Duration
		labelled(func() { o, dial, run = runLiveTraced(cfg, &t.tp, tap, &log) })
		t.dial += dial
		t.run += run
		for _, e := range log.Entries() {
			t.barriers = append(t.barriers, e.D.Seconds())
		}
	}
	cpu1, cyc1 := gcSamples()
	t.gcCPU += cpu1 - cpu0
	t.gcCycles += cyc1 - cyc0
	t.instances++
	return o
}

func (t *tracer) foldSpans(sp *spans) {
	for l := range t.incl {
		t.incl[l] += sp.incl[l]
		t.self[l] += sp.self[l]
	}
}

// runLockstepTraced reproduces ccba.Run for a lockstep Core config from
// public pieces — core.NewNodes over a wrapped fmine.Suite, netsim.NewRuntime
// over wrapped nodes, scenario.Evaluate — so each layer can be timed from
// outside. It returns the Real suite's verify-cache size (0 under Ideal).
func runLockstepTraced(cfg ccba.Config, sp *spans, fm *fmineStats, ns *nodeStats, tap *capture) (outcome, int) {
	sp.begin(layBuild)
	norm, err := cfg.Normalized()
	if err != nil {
		return outcome{err: err}, 0
	}
	if norm.Protocol != ccba.Core {
		return outcome{err: fmt.Errorf("traced lockstep runs assemble Core only, got %q", norm.Protocol)}, 0
	}
	probs := core.Probabilities(norm.N, norm.Lambda)
	var inner fmine.Suite
	var real *fmine.Real
	switch norm.Crypto {
	case ccba.Ideal:
		inner = fmine.NewIdeal(norm.Seed, probs)
	case ccba.Real:
		sp.begin(layPKI)
		pub, secrets := pki.Setup(norm.N, norm.Seed)
		sp.end()
		real = fmine.NewReal(pub, secrets, probs)
		inner = real
	default:
		return outcome{err: fmt.Errorf("unknown crypto mode %q", norm.Crypto)}, 0
	}
	suite := newTracedSuite(inner, sp, fm)
	ccfg := core.Config{N: norm.N, F: norm.F, Lambda: norm.Lambda, MaxIters: norm.MaxIters, Suite: suite}
	nodes, err := core.NewNodes(ccfg, norm.Inputs)
	if err != nil {
		return outcome{err: err}, 0
	}
	for i, nd := range nodes {
		nodes[i] = &tracedNode{Node: nd, sp: sp, st: ns, tap: tap}
	}
	maxRounds, err := norm.RoundBudget(ccfg.Rounds())
	if err != nil {
		return outcome{err: err}, 0
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: norm.N, F: norm.F, MaxRounds: maxRounds,
		Seize: func(id types.NodeID) any { return suite.Miner(id) },
		Net:   netsim.DeltaOne(),
	}, nodes, norm.Adversary)
	if err != nil {
		return outcome{err: err}, 0
	}
	sp.end()

	sp.begin(layRun)
	res, err := rt.RunCtx(context.Background())
	sp.end()
	if err != nil {
		return outcome{err: err}, 0
	}

	sp.begin(layEvaluate)
	o := checkReport(scenario.Evaluate(norm, res))
	sp.end()
	cache := 0
	if real != nil {
		cache = real.CacheLen()
	}
	return o, cache
}

// buildACS constructs an ACS node set over suite the way the scenario
// layer does for ideal-coin ACS.
func buildACS(cfg ccba.Config, suite fmine.Suite) []*acs.Node {
	src := aba.NewCoinSource(cfg.Seed)
	nodes := make([]*acs.Node, cfg.N)
	for i := range nodes {
		nodes[i] = acs.NewNode(acs.Config{
			N: cfg.N, F: cfg.F, Me: types.NodeID(i),
			Input: acsPayload(cfg.Inputs[i]),
			Suite: suite, Source: src,
			Sink: obs.NewSink(nil),
		})
	}
	return nodes
}

func schedMode(name ccba.SchedName) (netsim.SchedMode, error) {
	for _, s := range schedKeys {
		if s.name == name {
			return s.mode, nil
		}
	}
	return 0, fmt.Errorf("unknown scheduler %q", name)
}

// runEventTraced reproduces ccba.Run for an ideal-coin ACS config:
// acs.NewNode over a wrapped fmine.Suite, netsim.NewEventRuntime over
// wrapped nodes, then the checkers the scenario layer applies to ACS.
func runEventTraced(cfg ccba.Config, sp *spans, fm *fmineStats, ns *nodeStats, tap *capture) outcome {
	sp.begin(layBuild)
	norm, err := cfg.Normalized()
	if err != nil {
		return outcome{err: err}
	}
	if norm.Protocol != ccba.ACS || norm.Crypto != ccba.Ideal || norm.Crashes != 0 {
		return outcome{err: fmt.Errorf("traced event runs assemble crash-free ideal-coin ACS only")}
	}
	mode, err := schedMode(norm.Sched)
	if err != nil {
		return outcome{err: err}
	}
	suite := newTracedSuite(fmine.NewIdeal(norm.Seed, aba.CoinProb), sp, fm)
	typed := buildACS(norm, suite)
	nodes := make([]netsim.AsyncNode, len(typed))
	for i, nd := range typed {
		nodes[i] = &tracedAsyncNode{AsyncNode: nd, n: norm.N, sp: sp, st: ns, tap: tap}
	}
	rt, err := netsim.NewEventRuntime(netsim.EventConfig{
		N: norm.N, F: norm.F, Seed: norm.Seed,
		Sched: mode, AdvDelay: norm.AdvDelay, MaxDeliveries: norm.MaxDeliveries,
	}, nodes)
	if err != nil {
		return outcome{err: err}
	}
	sp.end()

	sp.begin(layRun)
	res, err := rt.RunCtx(context.Background())
	sp.end()
	if err != nil {
		return outcome{err: err}
	}

	sp.begin(layEvaluate)
	setSize, setErr := checkACS(norm.N, norm.F, norm.Inputs, res, typed)
	o := outcome{
		violation: errors.Join(netsim.CheckConsistency(res), setErr, netsim.CheckTermination(res)),
		c: counters{
			deliveries: res.Rounds,
			metrics:    res.Metrics,
			outputs:    digestOutputs(res),
			setSize:    setSize,
		},
	}
	for i, nd := range typed {
		if !res.Corrupt[i] && nd.DecidedRound() > o.c.rounds {
			o.c.rounds = nd.DecidedRound()
		}
	}
	sp.end()
	return o
}

// runLiveTraced runs cfg through cluster.Run over a wrapped loopback TCP
// mesh, returning the dial and run wall times.
func runLiveTraced(cfg ccba.Config, st *transportStats, tap *capture, log *obs.TimingLog) (o outcome, dial, run time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), instanceTimeout)
	defer cancel()
	start := time.Now()
	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	dial = time.Since(start)
	if err != nil {
		return outcome{err: err}, dial, 0
	}
	defer netw.Close()
	start = time.Now()
	rep, err := cluster.Run(ctx, cfg, newTracedNetwork(netw, st, tap), cluster.Options{Timing: log})
	run = time.Since(start)
	if err != nil {
		return outcome{err: err}, dial, run
	}
	return checkReport(rep.Report), dial, run
}

// layerSelf is one layer's self time per traced instance.
type layerSelf struct {
	name string
	s    float64
}

// selfTimes attributes the traced run's self time to the repository's
// modules. On the live cluster it is CPU time from the traced run's
// profile, with samples outside any repository frame as "runtime".
func (t *tracer) selfTimes() []layerSelf {
	k := float64(t.instances)
	per := func(d time.Duration) float64 { return d.Seconds() / k }
	var out []layerSelf
	switch t.w.kind {
	case lockstep, event:
		engine, proto := "netsim", "core"
		if t.w.kind == event {
			engine, proto = "netsim.event", "acs"
		}
		out = []layerSelf{
			{"scenario", per(t.self[layBuild] + t.self[layEvaluate])},
			{"crypto/pki", per(t.self[layPKI])},
			{"fmine", per(t.self[layMine] + t.self[layVerify])},
			{proto, per(t.self[layNode])},
			{engine, per(t.self[layRun])},
			{"perfbench", per(t.self[layInstance] + t.self[layCapture])},
		}
	case live:
		for mod, s := range t.cpu {
			out = append(out, layerSelf{mod, s / k})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].s > out[j].s })
	return out
}

func printSelfTimes(w io.Writer, name string, kind runtimeKind, ls []layerSelf) {
	var total float64
	for _, l := range ls {
		total += l.s
	}
	what := "self time"
	if kind == live {
		what = "CPU time"
	}
	fmt.Fprintf(w, "perfbench: %s %s per traced instance by layer:\n", name, what)
	for _, l := range ls {
		fmt.Fprintf(w, "  %-13s %10.6f s  %5.1f%%\n", l.name, l.s, 100*l.s/total)
	}
}
