package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ccba/internal/broadcast"
	"ccba/internal/netsim"
	"ccba/internal/scenario"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// equivCases span every registered protocol family and both crypto modes;
// each is run live on the chan transport and compared against the lockstep
// simulator on every protocol-visible fact.
var equivCases = []scenario.Config{
	{Protocol: scenario.Core, N: 40, F: 12, Lambda: 12},
	{Protocol: scenario.Core, N: 24, F: 7, Lambda: 8, Crypto: scenario.Real},
	{Protocol: scenario.CoreBroadcast, N: 20, F: 6, Lambda: 8, SenderInput: types.One},
	{Protocol: scenario.Quadratic, N: 15, F: 7},
	{Protocol: scenario.PhaseKingPlain, N: 13, F: 2, Epochs: 6},
	{Protocol: scenario.PhaseKingSampled, N: 40, F: 8, Lambda: 12, Epochs: 8},
	{Protocol: scenario.ChenMicali, N: 24, F: 8, Lambda: 10, Epochs: 6},
	{Protocol: scenario.DolevStrong, N: 12, F: 4, SenderInput: types.One},
	{Protocol: scenario.CommitteeEcho, N: 16, F: 0, SenderInput: types.One},
}

func caseName(cfg scenario.Config) string {
	name := fmt.Sprintf("%s-n%d", cfg.Protocol, cfg.N)
	if cfg.Crypto == scenario.Real {
		name += "-real"
	}
	return name
}

// runChan executes cfg on a fresh in-process network.
func runChan(t *testing.T, cfg scenario.Config) *Report {
	t.Helper()
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	rep, err := Run(context.Background(), cfg, netw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertSameExecution compares a live report against a simulator report on
// the protocol-visible facts: per-node decisions, round count, and the
// aggregate communication metrics.
func assertSameExecution(t *testing.T, live *Report, sim *scenario.Report) {
	t.Helper()
	for i := range sim.Outputs {
		if live.Outputs[i] != sim.Outputs[i] || live.Decided[i] != sim.Decided[i] || live.Halted[i] != sim.Halted[i] {
			t.Errorf("node %d: live (%v,%v,%v) vs lockstep (%v,%v,%v)",
				i, live.Outputs[i], live.Decided[i], live.Halted[i],
				sim.Outputs[i], sim.Decided[i], sim.Halted[i])
		}
	}
	if live.Rounds != sim.Rounds {
		t.Errorf("rounds: live %d vs lockstep %d", live.Rounds, sim.Rounds)
	}
	if live.Result.Metrics != sim.Result.Metrics {
		t.Errorf("metrics: live %+v vs lockstep %+v", live.Result.Metrics, sim.Result.Metrics)
	}
	if (live.Consistency == nil) != (sim.Consistency == nil) ||
		(live.Validity == nil) != (sim.Validity == nil) ||
		(live.Termination == nil) != (sim.Termination == nil) {
		t.Errorf("checker outcomes: live (%v,%v,%v) vs lockstep (%v,%v,%v)",
			live.Consistency, live.Validity, live.Termination,
			sim.Consistency, sim.Validity, sim.Termination)
	}
}

func TestChanClusterMatchesLockstep(t *testing.T) {
	for _, cfg := range equivCases {
		t.Run(caseName(cfg), func(t *testing.T) {
			cfg.Seed[0] = 7
			sim, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := runChan(t, cfg)
			assertSameExecution(t, live, sim)
		})
	}
}

// A declarative InputPattern must run live exactly as in the simulator:
// prepare normalizes the config (materialising the inputs) before Build
// validates it again, so a normalized config must stay valid.
func TestClusterAcceptsInputPattern(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 4, Lambda: 10, InputPattern: scenario.InputsUnanimous1}
	cfg.Seed[0] = 7
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := runChan(t, cfg)
	if !live.Ok() {
		t.Fatalf("violation: consistency=%v validity=%v termination=%v",
			live.Consistency, live.Validity, live.Termination)
	}
	for _, id := range live.ForeverHonest() {
		if live.Outputs[id] != types.One {
			t.Fatalf("node %d output %v under unanimous input 1", id, live.Outputs[id])
		}
	}
	assertSameExecution(t, live, sim)
}

// countingNode wraps a lockstep node and tallies its sends, giving the
// simulator the per-node accounting the cluster produces natively.
type countingNode struct {
	netsim.Node
	n       int
	metrics *netsim.Metrics
}

func (c *countingNode) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	sends := c.Node.Step(round, delivered)
	for _, s := range sends {
		c.metrics.CountSend(s.To, c.n, wire.Size(s.Msg))
	}
	return sends
}

// TestPerNodeMetricsMatchInstrumentedLockstep is the headline equivalence
// claim at per-node granularity: every node's multicast count (and the rest
// of its communication footprint) in a live run equals what that same node
// does under the lockstep engine.
func TestPerNodeMetricsMatchInstrumentedLockstep(t *testing.T) {
	for _, cfg := range equivCases {
		t.Run(caseName(cfg), func(t *testing.T) {
			cfg.Seed[0] = 7
			norm, err := cfg.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			nodes, _, steps, err := scenario.Build(norm)
			if err != nil {
				t.Fatal(err)
			}
			perNode := make([]netsim.Metrics, norm.N)
			wrapped := make([]netsim.Node, norm.N)
			for i, nd := range nodes {
				wrapped[i] = &countingNode{Node: nd, n: norm.N, metrics: &perNode[i]}
			}
			rt, err := netsim.NewRuntime(netsim.Config{N: norm.N, F: norm.F, MaxRounds: steps}, wrapped, nil)
			if err != nil {
				t.Fatal(err)
			}
			rt.Run()

			live := runChan(t, cfg)
			for i := range perNode {
				if live.PerNode[i] != perNode[i] {
					t.Errorf("node %d: live %+v vs instrumented lockstep %+v", i, live.PerNode[i], perNode[i])
				}
			}
		})
	}
}

// TestSynchronizerTorture runs many seeds of a mid-size cluster — 64 nodes,
// 50 trials, goroutine scheduling left to the runtime (and the race
// detector, under -race) — and checks every trial agrees with the lockstep
// engine bit for bit. Any ordering leak in the round synchronizer (a
// delivery that slips a round, a mis-sorted inbox) shows up as a divergence
// here long before it would corrupt a golden.
func TestSynchronizerTorture(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 8
	}
	base := scenario.Config{Protocol: scenario.Core, N: 64, F: 19, Lambda: 14}
	for trial := 0; trial < trials; trial++ {
		cfg := base
		cfg.Seed[0] = byte(trial)
		cfg.Seed[1] = byte(trial >> 8)
		cfg.Seed[2] = 0x5a
		sim, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := runChan(t, cfg)
		if t.Failed() {
			t.Fatalf("trial %d diverged", trial)
		}
		assertSameExecution(t, live, sim)
		if t.Failed() {
			t.Fatalf("trial %d diverged", trial)
		}
	}
}

// TestTCPClusterCoreAgreement is the live-socket path: a 4-node core
// agreement over a localhost TCP mesh must complete, satisfy the paper's
// properties, and agree with the lockstep engine.
func TestTCPClusterCoreAgreement(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3}
	cfg.Seed[0] = 7

	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	live, err := Run(ctx, cfg, netw, Options{RoundTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !live.Ok() {
		t.Fatalf("violations: %v %v %v", live.Consistency, live.Validity, live.Termination)
	}
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameExecution(t, live, sim)
}

// TestRunNodeMultiEndpoint drives each node through RunNode over its own
// TCP endpoint — the multi-process deployment shape, minus the processes —
// and checks every node assembles the same, correct report.
func TestRunNodeMultiEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Real crypto: each RunNode call rebuilds the suite from the seed, and
	// only the Appendix D compiler's VRF tickets verify across instances —
	// the hybrid world's trusted party cannot be split across processes.
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3, Crypto: scenario.Real}
	cfg.Seed[0] = 9

	netw, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()

	reports := make([]*Report, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for i, ep := range netw.Endpoints() {
		wg.Add(1)
		go func(i int, ep transport.Transport) {
			defer wg.Done()
			reports[i], errs[i] = RunNode(ctx, cfg, ep, Options{RoundTimeout: 30 * time.Second})
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, rep := range reports {
		if !rep.Ok() {
			t.Fatalf("node %d saw violations: %v %v %v", i, rep.Consistency, rep.Validity, rep.Termination)
		}
		if rep.Rounds != reports[0].Rounds || rep.Result.Metrics != reports[0].Result.Metrics {
			t.Fatalf("node %d assembled a different report: %+v vs %+v", i, rep.Result, reports[0].Result)
		}
		for j := range rep.Outputs {
			if rep.Outputs[j] != reports[0].Outputs[j] {
				t.Fatalf("node %d and node 0 disagree on node %d's output", i, j)
			}
		}
	}
}

func TestClusterRejectsSimulatorOnlyConfigs(t *testing.T) {
	netw, err := transport.NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	base := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3}

	withAdv := base
	withAdv.Adversary = netsim.Passive{}
	if _, err := Run(context.Background(), withAdv, netw, Options{}); err == nil ||
		!strings.Contains(err.Error(), "adversary") {
		t.Fatalf("adversary config: %v", err)
	}

	withNet := base
	withNet.Net = scenario.NetJitter
	withNet.Delta = 3
	if _, err := Run(context.Background(), withNet, netw, Options{}); err == nil ||
		!strings.Contains(err.Error(), "net model") {
		t.Fatalf("net-model config: %v", err)
	}

	small, err := transport.NewChanNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if _, err := Run(context.Background(), base, small, Options{}); err == nil ||
		!strings.Contains(err.Error(), "endpoints") {
		t.Fatalf("size mismatch: %v", err)
	}
}

// TestRunNodeRejectsHybridWorld: the F_mine trusted party cannot be split
// across processes, so per-process execution of an ideal-crypto committee
// protocol must fail loudly instead of stalling to the round budget.
func TestRunNodeRejectsHybridWorld(t *testing.T) {
	netw, err := transport.NewChanNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	cfg := scenario.Config{Protocol: scenario.Core, N: 4, F: 1, Lambda: 3}
	_, err = RunNode(context.Background(), cfg, netw.Endpoints()[0], Options{})
	if err == nil || !strings.Contains(err.Error(), "trusted party") {
		t.Fatalf("RunNode with ideal core: %v", err)
	}
	// Protocols without an F_mine suite replicate fine: quadratic's leader
	// oracle and PKI are deterministic in the seed.
	if err := func() error {
		qn, err := transport.NewChanNetwork(3)
		if err != nil {
			return err
		}
		defer qn.Close()
		qcfg := scenario.Config{Protocol: scenario.Quadratic, N: 3, F: 1}
		reports := make([]*Report, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i, ep := range qn.Endpoints() {
			wg.Add(1)
			go func(i int, ep transport.Transport) {
				defer wg.Done()
				reports[i], errs[i] = RunNode(context.Background(), qcfg, ep, Options{})
			}(i, ep)
		}
		wg.Wait()
		for i := range errs {
			if errs[i] != nil {
				return errs[i]
			}
			if !reports[i].Ok() {
				return fmt.Errorf("node %d violations: %v %v %v", i,
					reports[i].Consistency, reports[i].Validity, reports[i].Termination)
			}
		}
		return nil
	}(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCancellation(t *testing.T) {
	cfg := scenario.Config{Protocol: scenario.Core, N: 16, F: 5, Lambda: 6}
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg, netw, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: %v", err)
	}
}

// stubbornNode never decides: it multicasts the same message each round and
// never halts, driving the cluster into its round-budget path.
type stubbornNode struct{}

func (stubbornNode) Step(int, []netsim.Delivered) []netsim.Send {
	return []netsim.Send{netsim.Multicast(broadcast.InputMsg{B: types.Zero})}
}
func (stubbornNode) Output() (types.Bit, bool) { return types.NoBit, false }
func (stubbornNode) Halted() bool              { return false }

const stubbornProtocol = scenario.Protocol("cluster-test-stubborn")

func init() {
	scenario.RegisterProtocol(stubbornProtocol, func(cfg scenario.Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		nodes := make([]netsim.Node, cfg.N)
		for i := range nodes {
			nodes[i] = stubbornNode{}
		}
		return nodes, nil, 4, nil
	})
	scenario.RegisterDecoder(stubbornProtocol, broadcast.Decode)
}

// TestRoundBudgetExhaustion: when no node ever halts, the cluster must stop
// at the derived budget with the same termination violation and metrics the
// simulator reports.
func TestRoundBudgetExhaustion(t *testing.T) {
	cfg := scenario.Config{Protocol: stubbornProtocol, N: 5, F: 1}
	sim, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Termination == nil {
		t.Fatal("simulator terminated a stubborn protocol")
	}
	live := runChan(t, cfg)
	assertSameExecution(t, live, sim)
	if live.Rounds != 4 {
		t.Fatalf("rounds = %d, want the 4-step budget", live.Rounds)
	}
}
