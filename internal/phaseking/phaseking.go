package phaseking

import (
	"fmt"

	"ccba/internal/attest"
	"ccba/internal/crypto/prf"
	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// Domain is the F_mine tag domain for this protocol.
const Domain = "phaseking"

// Mining tag types.
const (
	TagPropose uint8 = 1
	TagAck     uint8 = 2
)

// Probabilities returns the difficulty schedule of §3.2: proposals at
// 1/(2n), ACKs at λ/n.
func Probabilities(n, lambda int) fmine.ProbFunc {
	return func(t fmine.Tag) float64 {
		if t.Domain != Domain {
			return 0
		}
		switch t.Type {
		case TagPropose:
			return fmine.LeaderProb(n)
		case TagAck:
			return fmine.CommitteeProb(n, lambda)
		default:
			return 0
		}
	}
}

// Config parameterises one node.
type Config struct {
	// N is the number of nodes.
	N int
	// Epochs is R, the number of epochs (ω(log κ) in the paper).
	Epochs int
	// Sampled selects the §3.2 committee-sampled variant.
	Sampled bool
	// Lambda is the expected committee size (sampled mode only).
	Lambda int
	// Suite provides eligibility election (sampled mode only).
	Suite fmine.Suite
	// CoinSeed seeds the per-node private leader coins.
	CoinSeed [32]byte
	// Intern, when non-nil, binds every node's ACK sets to a per-run
	// intern table so nodes with identical receive-histories share one
	// copy-on-divergence backing array (DESIGN.md §6). Behaviour is
	// bit-identical with or without it.
	Intern *attest.Interner
}

// Rounds returns the total number of synchronous rounds the protocol runs:
// two per epoch plus the output round.
func (c Config) Rounds() int { return 2*c.Epochs + 1 }

// ampleThreshold is the number of distinct ACKs needed for a bit to stick.
func (c Config) ampleThreshold() int {
	if c.Sampled {
		return (2*c.Lambda + 2) / 3 // ⌈2λ/3⌉
	}
	return (2*c.N + 2) / 3 // ⌈2n/3⌉
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("phaseking: n=%d", c.N)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("phaseking: epochs=%d", c.Epochs)
	}
	if c.Sampled {
		if c.Lambda <= 0 {
			return fmt.Errorf("phaseking: sampled mode needs lambda > 0")
		}
		if c.Suite == nil {
			return fmt.Errorf("phaseking: sampled mode needs an eligibility suite")
		}
	}
	return nil
}

// Node is one phase-king participant.
type Node struct {
	cfg   Config
	id    types.NodeID
	miner fmine.Miner
	verif fmine.Verifier
	coins prf.Key // private coin source for leader proposals

	belief  types.Bit // b_i
	sticky  bool      // F
	lastAck types.Bit // most recent bit this node ACKed (NoBit if none)

	// Per-epoch receive state, reset at each epoch boundary.
	proposals [2]bool       // valid proposal seen for bit 0/1 this epoch
	acks      [2]attest.Set // distinct ACKers per bit this epoch

	out     types.Bit
	decided bool
	halted  bool
}

// New constructs the state machine for node id with the given input bit.
func New(cfg Config, id types.NodeID, input types.Bit) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !input.Valid() {
		return nil, fmt.Errorf("phaseking: invalid input %v", input)
	}
	n := &Node{
		cfg:     cfg,
		id:      id,
		belief:  input,
		sticky:  true, // footnote 4: the sticky flag starts set so epoch 0 votes the input
		lastAck: types.NoBit,
		coins:   prf.DeriveKey(prf.Key(cfg.CoinSeed), "phaseking/coin/"+id.String()),
	}
	if cfg.Sampled {
		n.miner = cfg.Suite.Miner(id)
		n.verif = cfg.Suite.Verifier()
	}
	n.acks[0].Bind(cfg.Intern)
	n.acks[1].Bind(cfg.Intern)
	return n, nil
}

var _ netsim.Node = (*Node)(nil)

// Output implements netsim.Node.
func (n *Node) Output() (types.Bit, bool) { return n.out, n.decided }

// Halted implements netsim.Node.
func (n *Node) Halted() bool { return n.halted }

// leaderCoin flips the node's private coin for epoch r.
func (n *Node) leaderCoin(epoch uint32) types.Bit {
	out := prf.Eval(n.coins, fmine.Tag{Domain: Domain, Type: TagPropose, Iter: epoch}.Encode())
	return types.BitFromBool(out.Below(0.5))
}

// Step implements netsim.Node. Round 2r is epoch r's propose round (and the
// tally round for epoch r−1's ACKs); round 2r+1 is epoch r's ACK round.
func (n *Node) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	if n.halted {
		return nil
	}
	switch {
	case round >= 2*n.cfg.Epochs:
		// Final round: tally the last epoch's ACKs, then output.
		n.tally(uint32(n.cfg.Epochs-1), delivered)
		n.finish()
		return nil
	case round%2 == 0:
		epoch := uint32(round / 2)
		if epoch > 0 {
			n.tally(epoch-1, delivered)
		}
		return n.propose(epoch)
	default:
		epoch := uint32(round / 2)
		n.collectProposals(epoch, delivered)
		return n.ack(epoch)
	}
}

// finish fixes the node's output: in plain mode the bit it last ACKed (0 if
// none, per §3.1); in sampled mode its belief (see the package comment).
func (n *Node) finish() {
	switch {
	case n.cfg.Sampled:
		n.out = n.belief
	case n.lastAck == types.NoBit:
		n.out = types.Zero
	default:
		n.out = n.lastAck
	}
	n.decided = true
	n.halted = true
}

// propose multicasts a proposal if this node leads epoch r.
func (n *Node) propose(epoch uint32) []netsim.Send {
	coin := n.leaderCoin(epoch)
	if n.cfg.Sampled {
		tag := fmine.Tag{Domain: Domain, Type: TagPropose, Iter: epoch, Bit: coin}
		proof, ok := n.miner.Mine(tag)
		if !ok {
			return nil
		}
		return []netsim.Send{netsim.Multicast(ProposeMsg{Epoch: epoch, B: coin, Elig: proof})}
	}
	if int(n.id) != int(epoch)%n.cfg.N {
		return nil
	}
	return []netsim.Send{netsim.Multicast(ProposeMsg{Epoch: epoch, B: coin})}
}

// collectProposals records valid epoch-r proposals delivered at the start of
// the ACK round.
func (n *Node) collectProposals(epoch uint32, delivered []netsim.Delivered) {
	n.proposals = [2]bool{}
	for _, d := range delivered {
		m, ok := d.Msg.(ProposeMsg)
		if !ok || m.Epoch != epoch || !m.B.Valid() {
			continue
		}
		if !n.validProposal(epoch, d.From, m) {
			continue
		}
		n.proposals[m.B] = true
	}
}

func (n *Node) validProposal(epoch uint32, from types.NodeID, m ProposeMsg) bool {
	if n.cfg.Sampled {
		tag := fmine.Tag{Domain: Domain, Type: TagPropose, Iter: epoch, Bit: m.B}
		return n.verif.Verify(tag, from, m.Elig)
	}
	return int(from) == int(epoch)%n.cfg.N
}

// ack runs step 2 of the epoch: choose b* and (conditionally) multicast an
// ACK for it.
func (n *Node) ack(epoch uint32) []netsim.Send {
	bStar := n.belief
	if !n.sticky {
		switch {
		case n.proposals[0] && n.proposals[1]:
			// Equivocating leader: the paper allows an arbitrary choice.
			bStar = types.Zero
		case n.proposals[0]:
			bStar = types.Zero
		case n.proposals[1]:
			bStar = types.One
		}
	}
	// Reset the ACK tallies for this epoch before votes arrive, recycling
	// the backing arrays so a node's footprint stays bounded by the
	// committee size across all R epochs. The sets are never exported
	// (only Count is read), so truncation is as good as a fresh pair.
	n.acks[0].Reset()
	n.acks[1].Reset()

	if n.cfg.Sampled {
		tag := fmine.Tag{Domain: Domain, Type: TagAck, Iter: epoch, Bit: bStar}
		proof, ok := n.miner.Mine(tag)
		if !ok {
			return nil
		}
		n.lastAck = bStar
		return []netsim.Send{netsim.Multicast(AckMsg{Epoch: epoch, B: bStar, Elig: proof})}
	}
	n.lastAck = bStar
	return []netsim.Send{netsim.Multicast(AckMsg{Epoch: epoch, B: bStar})}
}

// tally processes the ACKs of epoch r (delivered at the start of round
// 2r+2): with ample ACKs for one bit the node adopts it and sets its sticky
// flag, otherwise it clears the flag.
func (n *Node) tally(epoch uint32, delivered []netsim.Delivered) {
	for _, d := range delivered {
		m, ok := d.Msg.(AckMsg)
		if !ok || m.Epoch != epoch || !m.B.Valid() {
			continue
		}
		if n.cfg.Sampled {
			tag := fmine.Tag{Domain: Domain, Type: TagAck, Iter: epoch, Bit: m.B}
			if !n.verif.Verify(tag, d.From, m.Elig) {
				continue
			}
		}
		n.acks[m.B].Add(d.From, m.Elig)
	}
	threshold := n.cfg.ampleThreshold()
	ample0 := n.acks[0].Count() >= threshold
	ample1 := n.acks[1].Count() >= threshold
	switch {
	case ample0 && ample1:
		// Impossible except with negligible probability ("consistency
		// within an epoch"); resolve deterministically by larger quorum.
		n.belief = types.BitFromBool(n.acks[1].Count() > n.acks[0].Count())
		n.sticky = true
	case ample0:
		n.belief, n.sticky = types.Zero, true
	case ample1:
		n.belief, n.sticky = types.One, true
	default:
		n.sticky = false
	}
}
