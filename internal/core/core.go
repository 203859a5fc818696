package core

import (
	"crypto/sha256"
	"fmt"

	"ccba/internal/attest"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// Domain separates this protocol's mining tags.
const Domain = "core"

// Mining tag types.
const (
	TagStatus    uint8 = 1
	TagPropose   uint8 = 2
	TagVote      uint8 = 3
	TagCommit    uint8 = 4
	TagTerminate uint8 = 5
)

// Probabilities returns the difficulty schedule of Appendix C.2: proposals
// at 1/(2n), every other message type at λ/n. Terminate tickets are not
// iteration-specific, matching the paper's mine(i, Terminate, b).
func Probabilities(n, lambda int) fmine.ProbFunc {
	return func(t fmine.Tag) float64 {
		if t.Domain != Domain {
			return 0
		}
		switch t.Type {
		case TagPropose:
			return fmine.LeaderProb(n)
		case TagStatus, TagVote, TagCommit, TagTerminate:
			return fmine.CommitteeProb(n, lambda)
		default:
			return 0
		}
	}
}

// VoteTag is the mining tag of an iteration-r vote for b.
func VoteTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagVote, Iter: iter, Bit: b}
}

// StatusTag is the mining tag of an iteration-r status for b.
func StatusTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagStatus, Iter: iter, Bit: b}
}

// ProposeTag is the mining tag of an iteration-r proposal for b.
func ProposeTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagPropose, Iter: iter, Bit: b}
}

// CommitTag is the mining tag of an iteration-r commit for b.
func CommitTag(iter uint32, b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagCommit, Iter: iter, Bit: b}
}

// TerminateTag is the mining tag of a terminate message for b.
func TerminateTag(b types.Bit) fmine.Tag {
	return fmine.Tag{Domain: Domain, Type: TagTerminate, Bit: b}
}

// Config parameterises one node.
type Config struct {
	// N is the number of nodes; F the corruption bound, F < (1/2 − ε)N.
	N, F int
	// Lambda is the expected committee size, ω(log κ) in the paper.
	Lambda int
	// MaxIters bounds the number of iterations before giving up (the paper
	// runs λ iterations; a good iteration ends the protocol much earlier in
	// expectation).
	MaxIters int
	// Suite provides eligibility election (F_mine or the VRF compiler).
	Suite fmine.Suite
	// Compact selects the memory-lean node representation (DESIGN.md §6):
	// the per-iteration vote/commit attestation maps are replaced by a
	// two-slot sliding window whose sets are recycled across iterations, so
	// a node's footprint is bounded by the committee size instead of
	// growing with every iteration executed. Valid only under lockstep
	// Δ = 1 delivery with no adversary — the regime scenario.Run selects it
	// in — where protocol traffic only ever touches the current and
	// previous iteration; traffic beyond the window is ignored.
	Compact bool
	// Intern, when non-nil, is a per-run intern table shared by every node
	// of the execution: all attestation sets bind to it, so nodes with
	// identical add-histories (every forever-honest node under the passive
	// lockstep schedule) share one copy-on-divergence backing array instead
	// of holding per-node state (DESIGN.md §6). Behaviour is bit-identical
	// with or without it; only storage changes.
	Intern *attest.Interner
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 || c.F < 0 || 2*c.F >= c.N {
		return fmt.Errorf("core: need f < n/2, got n=%d f=%d", c.N, c.F)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("core: lambda=%d", c.Lambda)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("core: maxIters=%d", c.MaxIters)
	}
	if c.Suite == nil {
		return fmt.Errorf("core: eligibility suite required")
	}
	return nil
}

// Threshold is the quorum size: ⌈λ/2⌉ distinct tickets.
func (c Config) Threshold() int { return (c.Lambda + 1) / 2 }

// Rounds returns a safe round bound for MaxIters iterations plus the
// terminate relay.
func (c Config) Rounds() int { return 4*c.MaxIters + 2 }

// Phase identifies the role of a round within its iteration.
type Phase uint8

// Iteration phases, in round order.
const (
	PhaseStatus Phase = iota + 1
	PhasePropose
	PhaseVote
	PhaseCommit
)

// PhaseOf maps a global round number to (iteration, phase); the layout is
// identical to the quadratic protocol's (iteration 1 = rounds 0–1).
func PhaseOf(round int) (uint32, Phase) {
	if round < 2 {
		return 1, PhaseVote + Phase(round)
	}
	q, rem := (round-2)/4, (round-2)%4
	return uint32(q + 2), PhaseStatus + Phase(rem)
}

// iterSets is one window slot of the compact representation: the per-bit
// attestation sets of one iteration.
type iterSets struct {
	iter uint32
	sets [2]attest.Set
}

// proposal is a received, validated leader proposal.
type proposal struct {
	leader types.NodeID
	bit    types.Bit
	cert   attest.Certificate
	elig   []byte
}

// Node is one participant's state machine.
type Node struct {
	cfg   Config
	id    types.NodeID
	input types.Bit
	miner fmine.Miner
	verif fmine.Verifier

	bestCert [2]attest.Certificate
	votes    map[uint32]*[2]attest.Set
	commits  map[uint32]*[2]attest.Set

	// Compact-mode replacements for the maps above (Config.Compact): a
	// two-slot iteration window per collection, plus a scratch pair that
	// absorbs — and discards — traffic for iterations older than the
	// window. Certificates cut from window sets are unaffected by slot
	// recycling: Attestations() copies.
	voteWin   [2]iterSets
	commitWin [2]iterSets
	staleSets [2]attest.Set

	// Proposals for the current iteration, keyed by bit; among valid
	// proposals for the same bit the lowest ticket hash wins, so all honest
	// nodes that saw the same messages follow the same leader.
	propIter  uint32
	proposals [2]*proposal

	terminate *TerminateMsg

	out     types.Bit
	decided bool
	halted  bool
}

// New constructs node id with the given input bit.
func New(cfg Config, id types.NodeID, input types.Bit) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !input.Valid() {
		return nil, fmt.Errorf("core: invalid input %v", input)
	}
	n := &Node{
		cfg:   cfg,
		id:    id,
		input: input,
		miner: cfg.Suite.Miner(id),
		verif: cfg.Suite.Verifier(),
	}
	if !cfg.Compact {
		n.votes = make(map[uint32]*[2]attest.Set)
		n.commits = make(map[uint32]*[2]attest.Set)
	} else {
		for w := 0; w < 2; w++ {
			bindPair(&n.voteWin[w].sets, cfg.Intern)
			bindPair(&n.commitWin[w].sets, cfg.Intern)
		}
		bindPair(&n.staleSets, cfg.Intern)
	}
	return n, nil
}

// bindPair binds both bit-slots of a per-iteration set pair to the run's
// intern table.
func bindPair(sets *[2]attest.Set, in *attest.Interner) {
	sets[0].Bind(in)
	sets[1].Bind(in)
}

// NewNodes constructs all n state machines for one execution.
func NewNodes(cfg Config, inputs []types.Bit) ([]netsim.Node, error) {
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("core: %d inputs for n=%d", len(inputs), cfg.N)
	}
	nodes := make([]netsim.Node, cfg.N)
	for i := range nodes {
		n, err := New(cfg, types.NodeID(i), inputs[i])
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

var _ netsim.Node = (*Node)(nil)

// Output implements netsim.Node.
func (n *Node) Output() (types.Bit, bool) { return n.out, n.decided }

// Halted implements netsim.Node.
func (n *Node) Halted() bool { return n.halted }

// Step implements netsim.Node.
func (n *Node) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if n.halted {
		return nil
	}
	n.ingest(delivered)

	// Terminate step (⋆): output, conditionally relay, halt.
	if n.terminate != nil {
		msg := *n.terminate
		n.out = msg.B
		n.decided = true
		n.halted = true
		if proof, ok := n.miner.Mine(TerminateTag(msg.B)); ok {
			msg.Elig = proof
			return []netsim.Send{netsim.Multicast(msg)}
		}
		return nil
	}

	iter, phase := PhaseOf(round)
	if int(iter) > n.cfg.MaxIters {
		return nil // out of iterations; keep listening for Terminate
	}
	switch phase {
	case PhaseStatus:
		return n.statusRound(iter)
	case PhasePropose:
		return n.proposeRound(iter)
	case PhaseVote:
		return n.voteRound(iter)
	case PhaseCommit:
		return n.commitRound(iter)
	default:
		return nil
	}
}

// verifyVoteAtt returns a VerifyFunc for vote tickets of (iter, b).
func (n *Node) verifyVoteAtt(iter uint32, b types.Bit) attest.VerifyFunc {
	tag := VoteTag(iter, b)
	return func(id types.NodeID, proof []byte) bool {
		return n.verif.Verify(tag, id, proof)
	}
}

// verifyCommitAtt returns a VerifyFunc for commit tickets of (iter, b).
func (n *Node) verifyCommitAtt(iter uint32, b types.Bit) attest.VerifyFunc {
	tag := CommitTag(iter, b)
	return func(id types.NodeID, proof []byte) bool {
		return n.verif.Verify(tag, id, proof)
	}
}

// absorbCert validates a received certificate for bit b and keeps it if it
// outranks the best known. A certificate whose rank does not exceed the best
// known rank for the same bit is accepted without re-verification: the node
// already holds a genuine certificate of at least that rank for b, so any
// decision gated on "a rank-≥r certificate for b exists" is substantively
// justified whether or not the attached copy is well-formed.
func (n *Node) absorbCert(c attest.Certificate, b types.Bit) bool {
	if c.Empty() {
		return true
	}
	if c.Bit != b || !b.Valid() {
		return false
	}
	if c.Rank() <= n.bestCert[b].Rank() {
		return true
	}
	if !c.Verify(n.cfg.Threshold(), n.verifyVoteAtt(c.Iter, c.Bit)) {
		return false
	}
	n.bestCert[b] = c
	return true
}

func (n *Node) voteSet(iter uint32) *[2]attest.Set {
	if n.cfg.Compact {
		return n.windowSet(&n.voteWin, iter)
	}
	s := n.votes[iter]
	if s == nil {
		s = &[2]attest.Set{}
		bindPair(s, n.cfg.Intern)
		n.votes[iter] = s
	}
	return s
}

func (n *Node) commitSet(iter uint32) *[2]attest.Set {
	if n.cfg.Compact {
		return n.windowSet(&n.commitWin, iter)
	}
	s := n.commits[iter]
	if s == nil {
		s = &[2]attest.Set{}
		bindPair(s, n.cfg.Intern)
		n.commits[iter] = s
	}
	return s
}

// windowSet resolves an iteration's attestation sets in the compact
// two-slot window. Under lockstep Δ = 1 delivery with no adversary an
// iteration-I message only ever arrives while the node is executing
// iteration I or I+1 — votes are delivered within their own iteration,
// commits one phase later — so a {current, previous} window is exactly
// sufficient and a slot is only reclaimed once its iteration can no longer
// receive traffic. Requests older than the window (impossible in that
// regime, defensive otherwise) get a scratch pair that is
// reset on every access: their traffic is observed and discarded.
func (n *Node) windowSet(w *[2]iterSets, iter uint32) *[2]attest.Set {
	if w[0].iter == iter {
		return &w[0].sets
	}
	if w[1].iter == iter {
		return &w[1].sets
	}
	old := 0
	if w[1].iter < w[0].iter {
		old = 1
	}
	if iter < w[old].iter {
		n.staleSets[0].Reset()
		n.staleSets[1].Reset()
		return &n.staleSets
	}
	w[old].iter = iter
	w[old].sets[0].Reset()
	w[old].sets[1].Reset()
	return &w[old].sets
}

func (n *Node) ingest(delivered []netsim.Delivered) {
	for _, d := range delivered {
		switch m := d.Msg.(type) {
		case StatusMsg:
			n.ingestStatus(d.From, m)
		case ProposeMsg:
			n.ingestPropose(d.From, m)
		case VoteMsg:
			n.ingestVote(d.From, m)
		case CommitMsg:
			n.ingestCommit(d.From, m)
		case TerminateMsg:
			n.ingestTerminate(m)
		}
	}
}

func (n *Node) ingestStatus(from types.NodeID, m StatusMsg) {
	if !m.B.Valid() {
		return
	}
	if !n.verif.Verify(StatusTag(m.Iter, m.B), from, m.Elig) {
		return
	}
	n.absorbCert(m.Cert, m.B)
}

func (n *Node) ingestPropose(from types.NodeID, m ProposeMsg) {
	if !m.B.Valid() {
		return
	}
	if !n.verif.Verify(ProposeTag(m.Iter, m.B), from, m.Elig) {
		return
	}
	if !n.absorbCert(m.Cert, m.B) {
		return
	}
	if n.propIter != m.Iter {
		n.propIter = m.Iter
		n.proposals = [2]*proposal{}
	}
	cand := &proposal{leader: from, bit: m.B, cert: m.Cert, elig: m.Elig}
	cur := n.proposals[m.B]
	if cur == nil || proposalLess(cand, cur) {
		n.proposals[m.B] = cand
	}
}

// proposalLess orders proposals for the same bit by ticket hash so all
// honest nodes converge on the same representative.
func proposalLess(a, b *proposal) bool {
	ha := sha256.Sum256(a.elig)
	hb := sha256.Sum256(b.elig)
	return string(ha[:]) < string(hb[:])
}

func (n *Node) ingestVote(from types.NodeID, m VoteMsg) {
	if !m.B.Valid() || m.Iter == 0 {
		return
	}
	if !n.verif.Verify(VoteTag(m.Iter, m.B), from, m.Elig) {
		return
	}
	// Votes after iteration 1 count only with a provably eligible leader's
	// proposal for the same bit attached.
	if m.Iter > 1 && !n.verif.Verify(ProposeTag(m.Iter, m.B), m.Leader, m.LeaderElig) {
		return
	}
	set := n.voteSet(m.Iter)
	set[m.B].Add(from, m.Elig)
	// ⌈λ/2⌉ votes for the same (iter, bit) form a certificate.
	if set[m.B].Count() >= n.cfg.Threshold() && m.Iter > n.bestCert[m.B].Rank() {
		n.bestCert[m.B] = attest.Certificate{Iter: m.Iter, Bit: m.B, Atts: set[m.B].Attestations()}
	}
}

func (n *Node) ingestCommit(from types.NodeID, m CommitMsg) {
	if !m.B.Valid() || m.Iter == 0 {
		return
	}
	if !n.verif.Verify(CommitTag(m.Iter, m.B), from, m.Elig) {
		return
	}
	if m.Cert.Iter == m.Iter && m.Cert.Bit == m.B {
		n.absorbCert(m.Cert, m.B)
	}
	set := n.commitSet(m.Iter)
	set[m.B].Add(from, m.Elig)
	if set[m.B].Count() >= n.cfg.Threshold() && n.terminate == nil {
		n.terminate = &TerminateMsg{Iter: m.Iter, B: m.B, Commits: set[m.B].Attestations()}
	}
}

func (n *Node) ingestTerminate(m TerminateMsg) {
	if n.terminate != nil || !m.B.Valid() || m.Iter == 0 {
		return
	}
	// The relayed message must itself carry a valid terminate ticket? No:
	// the paper's ⋆ step lets *any* node act on f+1 (here ⌈λ/2⌉) commit
	// messages, however delivered; the attached commits are the
	// justification. The Elig field on the arriving message is checked by
	// the runtime's receivers only for complexity accounting of the sender;
	// safety rests solely on the commit attestations below.
	if !attest.VerifyAll(m.Commits, n.cfg.Threshold(), n.verifyCommitAtt(m.Iter, m.B)) {
		return
	}
	n.terminate = &TerminateMsg{Iter: m.Iter, B: m.B, Commits: m.Commits}
}

// bestBit returns the bit backed by the highest certificate, falling back to
// the node's input when no certificate exists.
func (n *Node) bestBit() (types.Bit, attest.Certificate) {
	r0, r1 := n.bestCert[0].Rank(), n.bestCert[1].Rank()
	switch {
	case r0 == 0 && r1 == 0:
		return n.input, attest.Certificate{}
	case r1 > r0:
		return types.One, n.bestCert[1]
	default:
		return types.Zero, n.bestCert[0]
	}
}

func (n *Node) statusRound(iter uint32) []netsim.Send {
	b, cert := n.bestBit()
	proof, ok := n.miner.Mine(StatusTag(iter, b))
	if !ok {
		return nil
	}
	return []netsim.Send{netsim.Multicast(StatusMsg{Iter: iter, B: b, Cert: cert, Elig: proof})}
}

func (n *Node) proposeRound(iter uint32) []netsim.Send {
	b, cert := n.bestBit()
	proof, ok := n.miner.Mine(ProposeTag(iter, b))
	if !ok {
		return nil
	}
	return []netsim.Send{netsim.Multicast(ProposeMsg{Iter: iter, B: b, Cert: cert, Elig: proof})}
}

func (n *Node) voteRound(iter uint32) []netsim.Send {
	var b types.Bit
	var just *proposal
	switch {
	case iter == 1:
		b = n.input
	case n.propIter != iter:
		return nil
	case n.proposals[0] != nil && n.proposals[1] != nil:
		return nil // proposals for both bits: abstain
	case n.proposals[0] != nil:
		b, just = types.Zero, n.proposals[0]
	case n.proposals[1] != nil:
		b, just = types.One, n.proposals[1]
	default:
		return nil
	}
	if iter > 1 && n.bestCert[b.Flip()].Rank() > just.cert.Rank() {
		return nil
	}
	proof, ok := n.miner.Mine(VoteTag(iter, b))
	if !ok {
		return nil
	}
	msg := VoteMsg{Iter: iter, B: b, Elig: proof}
	if just != nil {
		msg.Leader = just.leader
		msg.LeaderElig = just.elig
	}
	return []netsim.Send{netsim.Multicast(msg)}
}

func (n *Node) commitRound(iter uint32) []netsim.Send {
	set := n.voteSet(iter)
	for _, b := range []types.Bit{types.Zero, types.One} {
		if set[b].Count() >= n.cfg.Threshold() && set[b.Flip()].Count() == 0 {
			proof, ok := n.miner.Mine(CommitTag(iter, b))
			if !ok {
				return nil
			}
			cert := attest.Certificate{Iter: iter, Bit: b, Atts: set[b].Attestations()}
			return []netsim.Send{netsim.Multicast(CommitMsg{
				Iter: iter, B: b, Cert: cert, Elig: proof,
			})}
		}
	}
	return nil
}
