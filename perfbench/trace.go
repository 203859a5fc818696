package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// layer is a span kind of the traced run. Spans nest instance → build/run/
// evaluate → node Step or Deliver → F_mine.
type layer int

const (
	layInstance layer = iota
	layBuild          // instance assembly: PKI, suite and nodes
	layPKI            // pki.Setup
	layRun            // the lockstep or event runtime
	layNode           // core Step, or acs Start/Deliver
	layMine           // F_mine Mine
	layVerify         // F_mine Verify
	layEvaluate       // property checkers
	layCapture        // the benchmark copying sends for the codec measurement
	numLayers
)

// spans records nested spans on one goroutine, keeping per-layer inclusive
// and self time. Self time is a span's duration minus its children's.
type spans struct {
	stack []openSpan
	incl  [numLayers]time.Duration
	self  [numLayers]time.Duration
}

type openSpan struct {
	l     layer
	start time.Duration
	child time.Duration
}

// epoch anchors span clock readings: time.Since reads only the monotonic
// clock, at about half the cost of time.Now.
var epoch = time.Now()

// spanCost is the duration an empty span measures — about one clock read.
// Every span subtracts it, so the clock's own cost is not billed to the
// layer being timed (a verify call costs a few clock reads).
var spanCost time.Duration

func init() {
	const pairs = 1 << 14
	var s spans
	for i := 0; i < pairs; i++ {
		s.begin(layInstance)
		s.end()
	}
	spanCost = s.incl[layInstance] / pairs
}

func (s *spans) begin(l layer) {
	s.stack = append(s.stack, openSpan{l: l, start: time.Since(epoch)})
}

func (s *spans) end() { s.endScaled(1) }

// endScaled closes the innermost span, counting its duration weight times:
// a span sampled at rate 1/weight stands for weight spans.
func (s *spans) endScaled(weight time.Duration) {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := time.Since(epoch) - top.start - spanCost
	if d < 0 {
		d = 0
	}
	d *= weight
	s.incl[top.l] += d
	s.self[top.l] += d - top.child*weight
	if len(s.stack) > 0 {
		s.stack[len(s.stack)-1].child += d
	}
}

// unwind closes every open span, including ones an error path left open.
func (s *spans) unwind() {
	for len(s.stack) > 0 {
		s.end()
	}
}

// fmineStats counts F_mine traffic.
type fmineStats struct {
	mineCalls, mineWins, verifyCalls int
}

// fmineSample is the share of F_mine calls the traced run clocks. Core
// makes about 200k verify calls per n=1000 instance; clocking each would
// double the instance's time and shift it into the callers' self time. A
// seeded pseudorandom 1-in-fmineSample choice keeps the estimate unbiased
// whatever the call pattern.
const fmineSample = 8

// tracedSuite wraps the F_mine suite a node set is built over.
type tracedSuite struct {
	inner fmine.Suite
	sp    *spans
	st    *fmineStats
	rng   uint64
}

func newTracedSuite(inner fmine.Suite, sp *spans, st *fmineStats) *tracedSuite {
	return &tracedSuite{inner: inner, sp: sp, st: st, rng: 0x9e3779b97f4a7c15}
}

// clocked draws whether the next call is one of the sampled ones.
func (t *tracedSuite) clocked() bool {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng%fmineSample == 0
}

func (t *tracedSuite) Miner(id types.NodeID) fmine.Miner {
	return &tracedMiner{inner: t.inner.Miner(id), t: t}
}

func (t *tracedSuite) Verifier() fmine.Verifier {
	return &tracedVerifier{inner: t.inner.Verifier(), t: t}
}

func (t *tracedSuite) ProofSize() int { return t.inner.ProofSize() }

type tracedMiner struct {
	inner fmine.Miner
	t     *tracedSuite
}

func (m *tracedMiner) Mine(tag fmine.Tag) ([]byte, bool) {
	m.t.st.mineCalls++
	var proof []byte
	var ok bool
	if m.t.clocked() {
		m.t.sp.begin(layMine)
		proof, ok = m.inner.Mine(tag)
		m.t.sp.endScaled(fmineSample)
	} else {
		proof, ok = m.inner.Mine(tag)
	}
	if ok {
		m.t.st.mineWins++
	}
	return proof, ok
}

func (m *tracedMiner) ID() types.NodeID { return m.inner.ID() }

type tracedVerifier struct {
	inner fmine.Verifier
	t     *tracedSuite
}

func (v *tracedVerifier) Verify(tag fmine.Tag, id types.NodeID, proof []byte) bool {
	v.t.st.verifyCalls++
	if !v.t.clocked() {
		return v.inner.Verify(tag, id, proof)
	}
	v.t.sp.begin(layVerify)
	ok := v.inner.Verify(tag, id, proof)
	v.t.sp.endScaled(fmineSample)
	return ok
}

// nodeStats counts protocol-node traffic.
type nodeStats struct {
	calls      int // Step calls, or Deliver calls
	sends      int // sends returned
	deliveries int // messages handed to Step (lockstep)
	links      int // recipient copies of the sends (event runtime)
}

// capture collects the messages one instance sends, for the codec
// measurement: on the simulators each message with its encoding at send
// time, on the live cluster each data-frame payload.
type capture struct {
	mu     sync.Mutex
	msgs   []wire.Message
	frames [][]byte
}

func (c *capture) addSends(sends []netsim.Send) {
	for _, s := range sends {
		c.msgs = append(c.msgs, s.Msg)
		c.frames = append(c.frames, wire.Marshal(s.Msg))
	}
}

func (c *capture) addFrame(env transport.Envelope) {
	if c == nil || env.Kind != transport.EnvData {
		return
	}
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), env.Payload...))
	c.mu.Unlock()
}

// tracedNode wraps a lockstep node.
type tracedNode struct {
	netsim.Node
	sp  *spans
	st  *nodeStats
	tap *capture
}

func (n *tracedNode) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	n.sp.begin(layNode)
	out := n.Node.Step(round, delivered)
	n.sp.end()
	n.st.calls++
	n.st.deliveries += len(delivered)
	n.st.sends += len(out)
	tapSends(n.sp, n.tap, out)
	return out
}

// tapSends copies sends into tap, if any, in a span of its own so the
// copying is not billed to the runtime that called the node.
func tapSends(sp *spans, tap *capture, out []netsim.Send) {
	if tap == nil {
		return
	}
	sp.begin(layCapture)
	tap.addSends(out)
	sp.end()
}

// tracedAsyncNode wraps an event-runtime node.
type tracedAsyncNode struct {
	netsim.AsyncNode
	n   int
	sp  *spans
	st  *nodeStats
	tap *capture
}

func (a *tracedAsyncNode) Start() []netsim.Send {
	a.sp.begin(layNode)
	out := a.AsyncNode.Start()
	a.sp.end()
	a.count(out)
	return out
}

func (a *tracedAsyncNode) Deliver(d netsim.Delivered) []netsim.Send {
	a.sp.begin(layNode)
	out := a.AsyncNode.Deliver(d)
	a.sp.end()
	a.st.calls++
	a.count(out)
	return out
}

func (a *tracedAsyncNode) count(out []netsim.Send) {
	a.st.sends += len(out)
	for _, s := range out {
		if s.To == types.Broadcast {
			a.st.links += a.n
		} else {
			a.st.links++
		}
	}
	tapSends(a.sp, a.tap, out)
}

// transportStats counts transport calls from every node goroutine. sendNs
// is wall time inside Send and Multicast, which write the frames; recvNs is
// wall time blocked in Recv, which only pops the endpoint's mailbox, so it
// is the node waiting at its round barrier, not transport work.
type transportStats struct {
	sends, payloadBytes, recvCalls atomic.Int64
	sendNs, recvNs                 atomic.Int64
}

// tracedNetwork wraps a transport network so every endpoint is traced.
type tracedNetwork struct {
	inner transport.Network
	eps   []transport.Transport
}

func newTracedNetwork(inner transport.Network, st *transportStats, tap *capture) *tracedNetwork {
	t := &tracedNetwork{inner: inner}
	for _, ep := range inner.Endpoints() {
		t.eps = append(t.eps, &tracedEndpoint{Transport: ep, st: st, tap: tap})
	}
	return t
}

func (t *tracedNetwork) N() int                           { return t.inner.N() }
func (t *tracedNetwork) Endpoints() []transport.Transport { return t.eps }
func (t *tracedNetwork) Close() error                     { return t.inner.Close() }

type tracedEndpoint struct {
	transport.Transport
	st  *transportStats
	tap *capture
}

func (e *tracedEndpoint) Send(to types.NodeID, env transport.Envelope) error {
	start := time.Now()
	err := e.Transport.Send(to, env)
	e.st.sendNs.Add(int64(time.Since(start)))
	e.st.sends.Add(1)
	e.st.payloadBytes.Add(int64(len(env.Payload)))
	e.tap.addFrame(env)
	return err
}

func (e *tracedEndpoint) Multicast(env transport.Envelope) error {
	start := time.Now()
	err := e.Transport.Multicast(env)
	e.st.sendNs.Add(int64(time.Since(start)))
	e.st.sends.Add(1)
	e.st.payloadBytes.Add(int64(len(env.Payload) * e.N()))
	e.tap.addFrame(env)
	return err
}

func (e *tracedEndpoint) Recv(ctx context.Context) (transport.Envelope, error) {
	start := time.Now()
	env, err := e.Transport.Recv(ctx)
	e.st.recvNs.Add(int64(time.Since(start)))
	e.st.recvCalls.Add(1)
	return env, err
}
