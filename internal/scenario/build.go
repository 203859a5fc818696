package scenario

import (
	"fmt"
	"sort"

	"ccba/internal/broadcast"
	"ccba/internal/chenmicali"
	"ccba/internal/committee"
	"ccba/internal/core"
	"ccba/internal/crypto/pki"
	"ccba/internal/dolevstrong"
	"ccba/internal/fmine"
	"ccba/internal/leader"
	"ccba/internal/netsim"
	"ccba/internal/phaseking"
	"ccba/internal/quadratic"
	"ccba/internal/types"
)

// Builder constructs one protocol's node set from a resolved Config. It
// returns the state machines, the Seize function handing secret material to
// the adversary on corruption (may be nil), and the protocol's step count —
// the number of lockstep rounds a fault-free execution needs, from which
// Run derives the round budget (steps × ∆).
type Builder func(cfg Config) (nodes []netsim.Node, seize func(types.NodeID) any, steps int, err error)

// builders is the protocol registry Run resolves through; it replaces the
// hard-wired protocol switch the root package used to carry.
var builders = map[Protocol]Builder{}

// RegisterProtocol adds a protocol builder to the registry. Registering a
// duplicate name panics: the registry is assembled at init time and a
// collision is a programming error.
func RegisterProtocol(p Protocol, b Builder) {
	if p == "" || b == nil {
		panic("scenario: RegisterProtocol with empty protocol or nil builder")
	}
	if _, dup := builders[p]; dup {
		panic(fmt.Sprintf("scenario: protocol %q registered twice", p))
	}
	builders[p] = b
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []Protocol {
	out := make([]Protocol, 0, len(builders))
	for p := range builders {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Build validates cfg, applies defaults, and constructs the protocol
// instance through the registry. Callers that need the raw node set (the
// lower-bound engines, instrumented runtimes) use this; everyone else goes
// through Run.
func Build(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, 0, err
	}
	cfg.applyDefaults()
	return build(cfg)
}

// build resolves the builder for an already-defaulted config.
func build(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
	if cfg.Protocol.Async() {
		return nil, nil, 0, fmt.Errorf("scenario: protocol %q runs on the event-driven runtime; use Run, not Build", cfg.Protocol)
	}
	b, ok := builders[cfg.Protocol]
	if !ok {
		return nil, nil, 0, fmt.Errorf("scenario: unknown protocol %q (registered: %v)", cfg.Protocol, Protocols())
	}
	return b(cfg)
}

// coreSuite builds the eligibility suite for the core protocol per the
// crypto mode, along with the seize function handing miners to the
// adversary.
func coreSuite(cfg Config) (fmine.Suite, func(types.NodeID) any, error) {
	probs := core.Probabilities(cfg.N, cfg.Lambda)
	var suite fmine.Suite
	switch cfg.Crypto {
	case Ideal:
		suite = fmine.NewIdeal(cfg.Seed, probs)
	case Real:
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		suite = fmine.NewReal(pub, secrets, probs)
	default:
		return nil, nil, fmt.Errorf("scenario: unknown crypto mode %q", cfg.Crypto)
	}
	return suite, func(id types.NodeID) any { return suite.Miner(id) }, nil
}

func init() {
	RegisterProtocol(Core, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		suite, seize, err := coreSuite(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		ccfg := core.Config{N: cfg.N, F: cfg.F, Lambda: cfg.Lambda, MaxIters: cfg.MaxIters, Suite: suite, Compact: cfg.compact, Intern: cfg.interner}
		nodes, err := core.NewNodes(ccfg, cfg.Inputs)
		return nodes, seize, ccfg.Rounds(), err
	})

	RegisterProtocol(CoreBroadcast, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		suite, seize, err := coreSuite(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		ccfg := core.Config{N: cfg.N, F: cfg.F, Lambda: cfg.Lambda, MaxIters: cfg.MaxIters, Suite: suite, Compact: cfg.compact, Intern: cfg.interner}
		nodes, err := broadcast.NewNodes(cfg.N, cfg.Sender, cfg.SenderInput,
			func(id types.NodeID, input types.Bit) (netsim.Node, error) { return core.New(ccfg, id, input) })
		return nodes, seize, ccfg.Rounds() + 1, err
	})

	RegisterProtocol(Quadratic, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		qcfg := quadratic.Config{
			N: cfg.N, F: cfg.F, MaxIters: cfg.MaxIters,
			Oracle: leader.New(cfg.Seed, cfg.N), PKI: pub,
		}
		nodes, err := quadratic.NewNodes(qcfg, cfg.Inputs, secrets)
		return nodes, func(id types.NodeID) any { return secrets[id] }, qcfg.Rounds(), err
	})

	RegisterProtocol(PhaseKingPlain, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pcfg := phaseking.Config{N: cfg.N, Epochs: cfg.Epochs, CoinSeed: cfg.Seed, Intern: cfg.interner}
		nodes, err := phaseking.NewNodes(pcfg, cfg.Inputs)
		return nodes, nil, pcfg.Rounds() + 1, err
	})

	RegisterProtocol(PhaseKingSampled, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		suite := fmine.Suite(fmine.NewIdeal(cfg.Seed, phaseking.Probabilities(cfg.N, cfg.Lambda)))
		if cfg.Crypto == Real {
			pub, secrets := pki.Setup(cfg.N, cfg.Seed)
			suite = fmine.NewReal(pub, secrets, phaseking.Probabilities(cfg.N, cfg.Lambda))
		}
		pcfg := phaseking.Config{
			N: cfg.N, Epochs: cfg.Epochs, Sampled: true, Lambda: cfg.Lambda,
			Suite: suite, CoinSeed: cfg.Seed, Intern: cfg.interner,
		}
		nodes, err := phaseking.NewNodes(pcfg, cfg.Inputs)
		return nodes, func(id types.NodeID) any { return suite.Miner(id) }, pcfg.Rounds() + 1, err
	})

	RegisterProtocol(ChenMicali, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		suite := fmine.Suite(fmine.NewIdeal(cfg.Seed, chenmicali.Probabilities(cfg.N, cfg.Lambda)))
		if cfg.Crypto == Real {
			suite = fmine.NewReal(pub, secrets, chenmicali.Probabilities(cfg.N, cfg.Lambda))
		}
		mcfg := chenmicali.Config{
			N: cfg.N, Epochs: cfg.Epochs, Lambda: cfg.Lambda, Erasure: cfg.Erasure,
			Suite: suite, PKI: pub,
		}
		nodes, keys, err := chenmicali.NewNodes(mcfg, cfg.Inputs, secrets)
		return nodes, func(id types.NodeID) any { return keys[id] }, mcfg.Rounds() + 1, err
	})

	RegisterProtocol(DolevStrong, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		pub, secrets := pki.Setup(cfg.N, cfg.Seed)
		dcfg := dolevstrong.Config{N: cfg.N, F: cfg.F, Sender: cfg.Sender, PKI: pub}
		nodes, err := dolevstrong.NewNodes(dcfg, cfg.SenderInput, secrets)
		return nodes, func(id types.NodeID) any { return secrets[id] }, dcfg.Rounds(), err
	})

	RegisterProtocol(CommitteeEcho, func(cfg Config) ([]netsim.Node, func(types.NodeID) any, int, error) {
		ecfg := committee.Config{N: cfg.N, CommitteeSize: cfg.CommitteeSize, Sender: cfg.Sender, CRS: cfg.Seed}
		nodes, err := committee.NewNodes(ecfg, cfg.SenderInput)
		return nodes, nil, ecfg.Rounds(), err
	})
}
