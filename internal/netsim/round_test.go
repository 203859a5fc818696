package netsim

import (
	"fmt"
	"testing"

	"ccba/internal/types"
)

// The tests in this file pin the round loop's layers to each other. With a
// passive adversary under DeltaOne the loop routes sends straight into the
// traffic-sized delivery state (the "sparse" regime); any other adversary
// builds the envelope window first (the "dense" regime, which materialises
// every in-flight message for the adversary). Both must deliver the same
// messages in the same order, and every layer must be byte-identical at
// every StepWorkers count.

// observer is a non-passive adversary that never acts: it forces the
// envelope window without changing what is delivered.
type observer struct{ Passive }

// stepWorkerCounts is the sweep every sharding claim here runs over:
// serial, even and odd splits, more workers than shards can use, and far
// more workers than nodes (clamped).
var stepWorkerCounts = []int{1, 2, 3, 4, 7, 64}

// layer is one configuration of the round loop's optional layers.
type layer struct {
	name string
	net  NetModel
	adv  func() Adversary
}

var layers = []layer{
	{"traffic-only", nil, func() Adversary { return nil }},
	{"window", nil, func() Adversary { return observer{} }},
	{"window+ring", WorstCase(2), func() Adversary { return nil }},
	{"window+remove", nil, func() Adversary {
		return &removeForAdversary{power: PowerStronglyAdaptive, target: 4, victim: 1}
	}},
}

// hostileScripts mixes multicasts and unicasts — across shard boundaries in
// both directions, to self, and to out-of-range recipients — interleaved
// across senders.
var hostileScripts = map[int][]Send{
	0: {
		Multicast(markMsg{Tag: 10}),
		Unicast(8, markMsg{Tag: 11}), // first shard → last shard
		Multicast(markMsg{Tag: 12}),
	},
	2: {
		Unicast(2, markMsg{Tag: 20}),  // self-unicast
		Unicast(17, markMsg{Tag: 21}), // out of range: dropped, still counted
		Unicast(types.NodeID(-3), markMsg{Tag: 22}),
	},
	4: {
		Unicast(1, markMsg{Tag: 40}), // middle shard → first shard
		Multicast(markMsg{Tag: 41}),
	},
	8: {
		Unicast(0, markMsg{Tag: 80}), // last shard → first shard
		Multicast(markMsg{Tag: 81}),
	},
}

func runScriptAt(t *testing.T, n, workers int, net NetModel, adv Adversary) ([]*scriptNode, *Result) {
	t.Helper()
	nodes := make([]Node, n)
	sn := make([]*scriptNode, n)
	for i := range nodes {
		sn[i] = &scriptNode{script: hostileScripts[i], rounds: 2}
		nodes[i] = sn[i]
	}
	rt, err := NewRuntime(Config{N: n, F: 2, MaxRounds: 8, StepWorkers: workers, Net: net}, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	return sn, rt.Run()
}

// The traffic-only path and the envelope window must produce identical
// per-recipient delivery sequences, metrics and rounds for the hostile mix.
func TestSparseMatchesDenseDelivery(t *testing.T) {
	const n = 9
	sparse, sparseRes := runScriptAt(t, n, 1, nil, nil)
	dense, denseRes := runScriptAt(t, n, 1, nil, observer{})
	for i := 0; i < n; i++ {
		if d, s := tags(dense[i].got), tags(sparse[i].got); !equalU32(d, s) {
			t.Errorf("node %d: window delivered %v, traffic-only delivered %v", i, d, s)
		}
	}
	if denseRes.Metrics != sparseRes.Metrics {
		t.Errorf("metrics: window %+v, traffic-only %+v", denseRes.Metrics, sparseRes.Metrics)
	}
	if denseRes.Rounds != sparseRes.Rounds {
		t.Errorf("rounds: window %d, traffic-only %d", denseRes.Rounds, sparseRes.Rounds)
	}
}

// TestSparseWorkersRejections pins the stepping-worker count's rules: a
// negative count is rejected, and any other count is valid in every regime
// — sharded stepping composes with the envelope window and the Δ ring
// rather than excluding them.
func TestSparseWorkersRejections(t *testing.T) {
	nodes := func() []Node { return echoNodes(4, 2, allZero) }
	if _, err := NewRuntime(Config{N: 4, F: 1, StepWorkers: -1}, nodes(), nil); err == nil {
		t.Fatal("negative StepWorkers accepted")
	}
	if _, err := NewRuntime(Config{N: 4, F: 1, StepWorkers: 4, Net: WorstCase(2)}, nodes(), &lateStatic{}); err != nil {
		t.Fatalf("sharded stepping with an adversary on a Δ=2 net rejected: %v", err)
	}
}

// A multi-round protocol (every node multicasting every round, then
// deciding) must agree between the two regimes on outputs, decisions,
// halts, corruption flags, rounds and metrics.
func TestSparseMatchesDenseMultiRound(t *testing.T) {
	input := func(i int) types.Bit { return types.BitFromBool(i%3 != 0) }
	run := func(adv Adversary) *Result {
		rt, err := NewRuntime(Config{N: 40, F: 5, MaxRounds: 20}, echoNodes(40, 4, input), adv)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run()
	}
	d, s := run(observer{}), run(nil)
	assertSameResult(t, "window vs traffic-only", d, s)
}

func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Metrics != want.Metrics {
		t.Fatalf("%s: rounds/metrics (%d %+v), want (%d %+v)", label, got.Rounds, got.Metrics, want.Rounds, want.Metrics)
	}
	for i := range want.Outputs {
		if got.Outputs[i] != want.Outputs[i] || got.Decided[i] != want.Decided[i] ||
			got.Halted[i] != want.Halted[i] || got.Corrupt[i] != want.Corrupt[i] {
			t.Fatalf("%s node %d: (%v,%v,%v,%v), want (%v,%v,%v,%v)", label, i,
				got.Outputs[i], got.Decided[i], got.Halted[i], got.Corrupt[i],
				want.Outputs[i], want.Decided[i], want.Halted[i], want.Corrupt[i])
		}
	}
}

// TestSparseShardPartition pins the shard-carving arithmetic: contiguous,
// disjoint, covering, and clamped to [1, n].
func TestSparseShardPartition(t *testing.T) {
	cases := []struct{ n, workers, wantShards int }{
		{10, 0, 1},
		{10, 1, 1},
		{10, 3, 3},
		{10, 10, 10},
		{10, 64, 10}, // clamped to n
		{1, 4, 1},
		{1_000, 8, 8},
	}
	for _, tc := range cases {
		shards := newShards(tc.n, tc.workers)
		if len(shards) != tc.wantShards {
			t.Errorf("n=%d workers=%d: %d shards, want %d", tc.n, tc.workers, len(shards), tc.wantShards)
		}
		next := 0
		for k, sh := range shards {
			if sh.lo != next || sh.hi <= sh.lo {
				t.Fatalf("n=%d workers=%d: shard %d = [%d,%d) after %d", tc.n, tc.workers, k, sh.lo, sh.hi, next)
			}
			next = sh.hi
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: shards cover [0,%d), want [0,%d)", tc.n, tc.workers, next, tc.n)
		}
	}
}

// TestSparseShardDeliveryEquivalence runs the hostile mix on every layer at
// every worker count and requires per-recipient delivery sequences,
// metrics and rounds identical to the serial run of the same layer.
func TestSparseShardDeliveryEquivalence(t *testing.T) {
	const n = 9
	for _, l := range layers {
		refNodes, refRes := runScriptAt(t, n, 1, l.net, l.adv())
		for _, w := range stepWorkerCounts[1:] {
			gotNodes, gotRes := runScriptAt(t, n, w, l.net, l.adv())
			label := fmt.Sprintf("%s workers=%d", l.name, w)
			for i := 0; i < n; i++ {
				if r, g := tags(refNodes[i].got), tags(gotNodes[i].got); !equalU32(r, g) {
					t.Errorf("%s node %d: serial delivered %v, sharded delivered %v", label, i, r, g)
				}
			}
			assertSameResult(t, label, refRes, gotRes)
		}
	}
}

// TestSparseShardMultiRoundEquivalence sweeps worker counts over a
// multi-round protocol on every layer and requires outputs, decisions,
// halts, corruption flags, rounds and metrics identical to the serial run.
func TestSparseShardMultiRoundEquivalence(t *testing.T) {
	input := func(i int) types.Bit { return types.BitFromBool(i%3 != 0) }
	for _, l := range layers {
		runAt := func(workers int) *Result {
			rt, err := NewRuntime(Config{N: 40, F: 5, MaxRounds: 20, StepWorkers: workers, Net: l.net},
				echoNodes(40, 4, input), l.adv())
			if err != nil {
				t.Fatal(err)
			}
			return rt.Run()
		}
		ref := runAt(1)
		for _, w := range stepWorkerCounts[1:] {
			assertSameResult(t, fmt.Sprintf("%s workers=%d", l.name, w), ref, runAt(w))
		}
	}
}
