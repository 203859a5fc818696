package netsim

import (
	"context"
	"fmt"

	"ccba/internal/harness"
	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Config parameterises one execution.
type Config struct {
	// N is the number of nodes.
	N int
	// F is the adversary's corruption budget.
	F int
	// MaxRounds bounds the execution; exceeding it is reported as a
	// termination failure, matching the paper's T_end-termination property.
	MaxRounds int
	// Seize returns the secret key material handed to the adversary when it
	// corrupts a node. May be nil.
	Seize func(id types.NodeID) any
	// Net is the message-scheduling model (nil = DeltaOne lockstep). See
	// NetModel for the delivery-bound and power-enforcement contract.
	Net NetModel
	// StepWorkers shards node stepping within each round (DESIGN.md §6):
	// node IDs are split into StepWorkers contiguous ranges, stepped
	// concurrently on a worker pool, and their sends merged back in node-id
	// order, so results and traces are byte-identical for every count. 0 or
	// 1 steps serially; counts above N are clamped to N.
	StepWorkers int
	// Tracer receives the round-lifecycle event stream (DESIGN.md §10):
	// round starts, deliveries and sends with their Definitions 6–7 sizes,
	// decide/halt transitions, watermark marks, and injected link faults.
	// Trace content is a pure function of (config, seed) — identical for
	// every StepWorkers count. Nil disables tracing; the engine then
	// allocates no trace state and the hot paths pay one predictable branch
	// per node. Implementations must accept concurrent Emit calls (shards
	// emit in parallel).
	Tracer obs.Tracer
}

// Runtime executes one protocol instance under one adversary.
//
// There is one round loop (round.go). Its per-round state is sized by
// traffic, not by n: one shared multicast list every inbox aliases plus a
// map of the few recipients with unicast extras. Two layers sit on it and
// are built only when needed: the adversary's envelope window (any
// adversary other than Passive, or any network model other than DeltaOne)
// and the Δ-scheduling ring (network models other than DeltaOne).
// Envelopes and inbox slices are only valid during the round they belong
// to — adversaries and nodes must not retain them across rounds (no
// strategy in this repository does).
type Runtime struct {
	cfg     Config
	nodes   []Node
	adv     Adversary
	metrics Metrics

	net    NetModel
	faulty []bool // omission-faulty senders declared by the model, nil if none

	// status and corruptAt exist exactly when the envelope window does
	// (any adversary other than Passive, or any network model other than
	// DeltaOne); without it every node is forever honest.
	status    []types.Status
	corruptAt []int // round at which the node was corrupted, -1 if honest

	// cur holds the deliveries of the round being stepped, next accumulates
	// the round's sends for delivery at round+1 (lockstep only).
	cur, next deliveries

	shards   []shard
	pool     *harness.Pool
	curRound int // round currently being stepped, read by pool workers

	// Envelope window (status != nil): the adversary-visible view of the
	// round's sends, backed by a round-scoped slab.
	envSlab []Envelope
	envs    []*Envelope

	// Δ-scheduling ring (non-nil unless the model is DeltaOne): Δ+1
	// future rounds of per-node delivery lists, reused across laps.
	ring [][][]Delivered

	// Trace state, allocated only when Config.Tracer is set. trDecided
	// deduplicates EvDecide to the transition round (each entry is touched
	// only by the shard owning the node); faultSeq counts injected faults
	// per sender within the current round; faultKind is the network
	// model's optional drop classifier.
	tr        obs.Sink
	trDecided []bool
	faultSeq  map[types.NodeID]uint32
	faultKind faultKinder
}

// faultKinder is an optional NetModel extension: a model that can drop for
// more than one reason (seeded omission vs. crash window) classifies each
// accepted drop for the trace. Models without it trace every drop as
// obs.FaultDrop.
type faultKinder interface {
	DropKind(round int, from types.NodeID) obs.FaultKind
}

// NewRuntime builds a runtime over n constructed nodes.
func NewRuntime(cfg Config, nodes []Node, adv Adversary) (*Runtime, error) {
	if cfg.N != len(nodes) {
		return nil, fmt.Errorf("netsim: config N=%d but %d nodes supplied", cfg.N, len(nodes))
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("netsim: need at least one node, got %d", cfg.N)
	}
	if cfg.F < 0 || cfg.F >= cfg.N {
		return nil, fmt.Errorf("netsim: corruption budget f=%d out of range for n=%d", cfg.F, cfg.N)
	}
	if cfg.StepWorkers < 0 {
		return nil, fmt.Errorf("netsim: StepWorkers=%d cannot be negative", cfg.StepWorkers)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10_000
	}
	if adv == nil {
		adv = Passive{}
	}
	if cfg.Net == nil {
		cfg.Net = DeltaOne()
	}
	faulty, err := validateNetModel(cfg.Net, cfg.N, cfg.F)
	if err != nil {
		return nil, err
	}
	_, lockstep := cfg.Net.(deltaOne)
	_, passive := adv.(Passive)
	rt := &Runtime{
		cfg:    cfg,
		nodes:  nodes,
		adv:    adv,
		net:    cfg.Net,
		faulty: faulty,
		cur:    newDeliveries(),
		next:   newDeliveries(),
		shards: newShards(cfg.N, cfg.StepWorkers),
		tr:     obs.NewSink(cfg.Tracer),
	}
	if !passive || !lockstep {
		rt.status = make([]types.Status, cfg.N)
		rt.corruptAt = make([]int, cfg.N)
		for i := range rt.status {
			rt.status[i] = types.Honest
			rt.corruptAt[i] = -1
		}
	}
	if !lockstep {
		rt.ring = make([][][]Delivered, cfg.Net.Delta()+1)
		for i := range rt.ring {
			rt.ring[i] = make([][]Delivered, cfg.N)
		}
	}
	if cfg.Tracer != nil {
		rt.trDecided = make([]bool, cfg.N)
		if !lockstep {
			rt.faultSeq = make(map[types.NodeID]uint32)
			rt.faultKind, _ = cfg.Net.(faultKinder)
		}
	}
	return rt, nil
}

// Result summarises an execution.
type Result struct {
	// Outputs[i] is node i's output (NoBit if it never decided); Decided[i]
	// records whether it decided. Only forever-honest entries are meaningful
	// for the security properties.
	Outputs []types.Bit
	Decided []bool
	Halted  []bool
	// Corrupt[i] reports whether node i was eventually corrupt.
	Corrupt []bool
	// OmissionFaulty[i] reports whether the network model declared node i an
	// omission-faulty sender. Faulty nodes execute honestly and stay in the
	// forever-honest set the security checkers range over — omission faults
	// degrade what the network delivers, not what the node is promised.
	OmissionFaulty []bool
	// Rounds is the number of rounds executed.
	Rounds  int
	Metrics Metrics
}

// ForeverHonest returns the IDs of nodes that were never corrupted.
func (r *Result) ForeverHonest() []types.NodeID {
	out := make([]types.NodeID, 0, len(r.Corrupt))
	r.EachForeverHonest(func(id types.NodeID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// EachForeverHonest calls fn for every forever-honest node in id order,
// stopping early when fn returns false. It is the allocation-free
// counterpart of ForeverHonest().
func (r *Result) EachForeverHonest(fn func(id types.NodeID) bool) {
	for i, c := range r.Corrupt {
		if c {
			continue
		}
		if !fn(types.NodeID(i)) {
			return
		}
	}
}

// NumCorrupt returns the number of eventually-corrupt nodes.
func (r *Result) NumCorrupt() int {
	n := 0
	for _, c := range r.Corrupt {
		if c {
			n++
		}
	}
	return n
}

// Run executes rounds until every forever-honest node halts or MaxRounds is
// reached, and returns the result.
func (rt *Runtime) Run() *Result {
	res, _ := rt.RunCtx(context.Background())
	return res
}

// RunCtx is Run with cancellation: ctx is checked between rounds, and a
// cancelled execution returns ctx's error instead of a result. Per-round
// granularity keeps the hot path untouched — a round is the natural
// preemption point of a lockstep engine.
func (rt *Runtime) RunCtx(ctx context.Context) (*Result, error) {
	if rt.status != nil {
		// Without the window the adversary is Passive: nothing to set up.
		rt.adv.Setup(rt.newCtx(-1, nil))
	}
	if len(rt.shards) > 1 {
		rt.pool = harness.NewPool(len(rt.shards), rt.stepShard)
		defer rt.pool.Close()
	}

	round := 0
	for ; round < rt.cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rt.stepRound(round) {
			round++
			break
		}
	}
	return rt.collect(round), nil
}

func (rt *Runtime) collect(rounds int) *Result {
	n := rt.cfg.N
	res := &Result{
		Outputs: make([]types.Bit, n),
		Decided: make([]bool, n),
		Halted:  make([]bool, n),
		Corrupt: make([]bool, n),
		Rounds:  rounds,
		Metrics: rt.metrics,
	}
	if rt.faulty != nil {
		res.OmissionFaulty = append([]bool(nil), rt.faulty...)
	}
	for i := 0; i < n; i++ {
		bit, ok := rt.nodes[i].Output()
		if !ok {
			bit = types.NoBit
		}
		res.Outputs[i] = bit
		res.Decided[i] = ok
		res.Halted[i] = rt.nodes[i].Halted()
		res.Corrupt[i] = rt.corrupt(types.NodeID(i))
	}
	return res
}

// corrupt reports whether node id is corrupt; always false without the
// envelope window, whose adversary is passive.
func (rt *Runtime) corrupt(id types.NodeID) bool {
	return rt.status != nil && rt.status[id] == types.Corrupt
}

// Metrics accounts communication complexity.
type Metrics struct {
	// HonestMulticasts and HonestMulticastBytes measure Definition 7
	// (multicast complexity): sends by so-far-honest nodes to everyone.
	HonestMulticasts     int
	HonestMulticastBytes int
	// HonestMessages and HonestMessageBytes measure Definition 6 (classical
	// complexity): a multicast counts as n pairwise messages.
	HonestMessages     int
	HonestMessageBytes int
}

// CountSend accounts one honest send of an encoded size in a network of n
// nodes, per Definitions 6 and 7: a multicast is one multicast plus n
// pairwise messages; a unicast is one pairwise message. Every accounting
// site — the lockstep engine, the live cluster runtime, and the
// equivalence tests — goes through this one rule so the definitions cannot
// drift apart.
func (m *Metrics) CountSend(to types.NodeID, n, size int) {
	if to == types.Broadcast {
		m.HonestMulticasts++
		m.HonestMulticastBytes += size
		m.HonestMessages += n
		m.HonestMessageBytes += n * size
	} else {
		m.HonestMessages++
		m.HonestMessageBytes += size
	}
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.HonestMulticasts += other.HonestMulticasts
	m.HonestMulticastBytes += other.HonestMulticastBytes
	m.HonestMessages += other.HonestMessages
	m.HonestMessageBytes += other.HonestMessageBytes
}

// EncodeTo appends the four counters to w in declaration order. The wire
// codec lives here, next to the counters, so cross-process exchange (the
// cluster runtime's result records) stays a Metrics concern rather than a
// second accounting path in a far-away package.
func (m *Metrics) EncodeTo(w *wire.Writer) {
	w.U64(uint64(m.HonestMulticasts))
	w.U64(uint64(m.HonestMulticastBytes))
	w.U64(uint64(m.HonestMessages))
	w.U64(uint64(m.HonestMessageBytes))
}

// DecodeFrom reads the counters written by EncodeTo; decoding errors
// surface through r's sticky error.
func (m *Metrics) DecodeFrom(r *wire.Reader) {
	m.HonestMulticasts = int(r.U64())
	m.HonestMulticastBytes = int(r.U64())
	m.HonestMessages = int(r.U64())
	m.HonestMessageBytes = int(r.U64())
}
