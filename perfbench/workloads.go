package main

import (
	"context"
	"fmt"
	"time"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/harness"
	"ccba/internal/transport"
)

// runtimeKind is the runtime a workload's instances execute on.
type runtimeKind int

const (
	lockstep runtimeKind = iota // netsim lockstep engine via ccba.Run
	event                       // netsim event runtime via ccba.Run
	live                        // cluster.Run over a loopback TCP mesh
)

// instCase is one protocol setting a workload cycles through. Only protocol
// inputs are set; the engine switches (Sparse, SparseWorkers, Parallel,
// Intern) stay at their defaults so the benchmark follows the default path.
type instCase struct {
	cfg       ccba.Config
	adversary string // registered adversary name; "" is passive
}

// workload is one closed-loop benchmark workload: one agreement instance in
// flight, instance i running cases[i mod len(cases)] with its own seed.
type workload struct {
	name  string
	kind  runtimeKind
	cases []instCase
	// counted is the fewest instances a timed run measures and the prefix
	// its deterministic counters average over, so two runs of one seed
	// report them identically whatever their length. Protocol randomness
	// makes rounds and bytes vary by instance; the prefix is as long as
	// the workload's speed allows within a run.
	counted int
}

var workloads = []*workload{
	{
		// Engine, core Step, ideal F_mine and attest do the work; the flip
		// case keeps the adversary's rushing envelope window on the path.
		name:    "sim-core-ideal",
		kind:    lockstep,
		counted: 300,
		cases: []instCase{
			{cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40}},
			{cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40, InputPattern: "unanimous-1"}},
			{cfg: ccba.Config{Protocol: ccba.Core, N: 1000, F: 300, Lambda: 40}, adversary: "flip"},
		},
	},
	{
		// Same engine and protocol as sim-core-ideal under the Appendix D
		// compiler, so a crypto change moves this workload and not that one.
		name:    "sim-core-real",
		kind:    lockstep,
		counted: 240,
		cases: []instCase{
			{cfg: ccba.Config{Protocol: ccba.Core, N: 200, F: 60, Lambda: 40, Crypto: ccba.Real}},
		},
	},
	{
		// Event scheduling and ACS delivery; random is the one mode that
		// needs a heap, the other two keep the heap-free modes measured.
		name:    "async-acs",
		kind:    event,
		counted: minInstances,
		cases: []instCase{
			{cfg: ccba.Config{Protocol: ccba.ACS, N: 32, F: 10, Sched: ccba.SchedFIFO}},
			{cfg: ccba.Config{Protocol: ccba.ACS, N: 32, F: 10, Sched: ccba.SchedRandom}},
			{cfg: ccba.Config{Protocol: ccba.ACS, N: 32, F: 10, Sched: ccba.SchedAdvDelay}},
		},
	},
	{
		// Frame I/O, the mesh dial, the codec and the round barrier; the
		// simulator engine is not on the path.
		name:    "cluster-tcp",
		kind:    live,
		counted: 300,
		cases: []instCase{
			{cfg: ccba.Config{Protocol: ccba.Core, N: 16, F: 4, Lambda: 10}},
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// instanceTimeout bounds one instance; a stalled live mesh then counts as a
// failed instance instead of hanging the benchmark.
const instanceTimeout = 60 * time.Second

// config returns instance i's config: its case, and a seed derived from the
// workload seed through harness.SeedFrom.
func (w *workload) config(base [32]byte, i int) (ccba.Config, instCase) {
	c := w.cases[i%len(w.cases)]
	cfg := c.cfg
	cfg.Seed = harness.SeedFrom(base, "perfbench", w.name, i)
	return cfg, c
}

// withAdversary attaches a fresh adversary for instance i; adversaries carry
// per-run state and are never shared between instances.
func withAdversary(cfg ccba.Config, c instCase, i int) (ccba.Config, error) {
	if c.adversary == "" {
		return cfg, nil
	}
	adv, err := ccba.NewAdversary(c.adversary, cfg, i)
	if err != nil {
		return cfg, err
	}
	cfg.Adversary = adv
	return cfg, nil
}

// runPublic executes instance i through the entry points a user calls, with
// tracing off, and checks its report.
func (w *workload) runPublic(base [32]byte, i int) outcome {
	cfg, c := w.config(base, i)
	cfg, err := withAdversary(cfg, c, i)
	if err != nil {
		return outcome{err: err}
	}
	if w.kind == live {
		return runLive(cfg)
	}
	rep, err := ccba.Run(cfg)
	if err != nil {
		return outcome{err: err}
	}
	return checkReport(rep)
}

// runLive runs cfg on a fresh loopback TCP mesh, the way a user runs a
// whole cluster in one process.
func runLive(cfg ccba.Config) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), instanceTimeout)
	defer cancel()
	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	if err != nil {
		return outcome{err: err}
	}
	defer netw.Close()
	rep, err := cluster.Run(ctx, cfg, netw, cluster.Options{})
	if err != nil {
		return outcome{err: err}
	}
	return checkReport(rep.Report)
}
