package ccba

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The golden values below were captured from the pre-refactor round engine
// (the seed tree, commit 3c34f38) and pin the full observable behaviour of a
// fixed-seed execution: a hash of every node's (output, decided) pair, the
// round count, and all four communication-complexity counters. The
// zero-allocation engine must reproduce them bit-for-bit at every
// stepping-worker count — buffer reuse that changed delivery order, metrics
// accounting, or coin derivation would show up here immediately.

type goldenCase struct {
	name    string
	cfg     Config
	outputs string // first 16 hex chars of sha256 over (outputs, decided)
	rounds  int
	metrics Metrics
}

var goldenCases = []goldenCase{
	{
		name:    "core-ideal-n80",
		cfg:     Config{Protocol: Core, N: 80, F: 24, Lambda: 16, Crypto: Ideal},
		outputs: "4d30e1f10fb6597b",
		rounds:  11,
		metrics: Metrics{
			HonestMulticasts:     101,
			HonestMulticastBytes: 34613,
			HonestMessages:       8080,
			HonestMessageBytes:   2769040,
		},
	},
	{
		name:    "core-real-n40",
		cfg:     Config{Protocol: Core, N: 40, F: 12, Lambda: 12, Crypto: Real},
		outputs: "fb8e69bdfa2ad15b",
		rounds:  7,
		metrics: Metrics{
			HonestMulticasts:     53,
			HonestMulticastBytes: 16134,
			HonestMessages:       2120,
			HonestMessageBytes:   645360,
		},
	},
	{
		name:    "quadratic-n31",
		cfg:     Config{Protocol: Quadratic, N: 31, F: 15},
		outputs: "332810fe8e8b97f1",
		rounds:  7,
		metrics: Metrics{
			HonestMulticasts:     156,
			HonestMulticastBytes: 152019,
			HonestMessages:       4836,
			HonestMessageBytes:   4712589,
		},
	},
}

func outputsDigest(rep *Report) string {
	h := sha256.New()
	for _, b := range rep.Outputs {
		h.Write([]byte{byte(b)})
	}
	for _, d := range rep.Decided {
		v := byte(0)
		if d {
			v = 1
		}
		h.Write([]byte{v})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stepWorkers are the node-stepping worker counts the determinism suites
// sweep: serial and a sharded split.
var stepWorkers = []int{1, 4}

// workersName labels a worker count in subtest names.
func workersName(workers int) string {
	if workers == 1 {
		return "serial"
	}
	return "parallel"
}

// The goldens through Build + NewRuntime: the map node layout with owned
// attestation storage that adversarial runs and the live cluster use.
// TestSparseMatchesGoldens pins Run's compact layout to the same values.
func TestFixedSeedGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		for _, workers := range stepWorkers {
			t.Run(tc.name+"/"+workersName(workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed[0] = 7
				cfg.StepWorkers = workers
				checkGolden(t, tc, runMapLayout(t, cfg))
			})
		}
	}
}

// checkGolden asserts that rep holds and matches tc's pinned outputs
// digest, round count and metrics.
func checkGolden(t *testing.T, tc goldenCase, rep *Report) {
	t.Helper()
	if !rep.Ok() {
		t.Fatalf("violation: consistency=%v validity=%v termination=%v",
			rep.Consistency, rep.Validity, rep.Termination)
	}
	if got := outputsDigest(rep); got != tc.outputs {
		t.Errorf("outputs digest = %s, want %s", got, tc.outputs)
	}
	if rep.Rounds != tc.rounds {
		t.Errorf("rounds = %d, want %d", rep.Rounds, tc.rounds)
	}
	if rep.Result.Metrics != tc.metrics {
		t.Errorf("metrics = %+v, want %+v", rep.Result.Metrics, tc.metrics)
	}
}

// The pluggable network-model layer must leave the default path untouched:
// an explicitly selected delta-one model (the lockstep fast path) and the
// general scheduler's Δ=1 behavior both reproduce the pre-refactor goldens
// bit for bit.
func TestDeltaOneExplicitMatchesGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed[0] = 7
			cfg.Net = NetDeltaOne
			cfg.Delta = 1
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := outputsDigest(rep); got != tc.outputs {
				t.Errorf("outputs digest = %s, want %s", got, tc.outputs)
			}
			if rep.Rounds != tc.rounds {
				t.Errorf("rounds = %d, want %d", rep.Rounds, tc.rounds)
			}
			if rep.Result.Metrics != tc.metrics {
				t.Errorf("metrics = %+v, want %+v", rep.Result.Metrics, tc.metrics)
			}
		})
	}
}

// Two executions of the same configuration must agree exactly — including
// across stepping-worker counts — beyond the spot-checked goldens: every
// output, decision flag, and halt flag.
func TestSerialParallelIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *Report {
				cfg := tc.cfg
				cfg.Seed[0] = 7
				cfg.StepWorkers = workers
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			a, b := run(stepWorkers[0]), run(stepWorkers[1])
			for i := range a.Outputs {
				if a.Outputs[i] != b.Outputs[i] || a.Decided[i] != b.Decided[i] || a.Halted[i] != b.Halted[i] {
					t.Fatalf("node %d: serial (%v,%v,%v) vs parallel (%v,%v,%v)",
						i, a.Outputs[i], a.Decided[i], a.Halted[i],
						b.Outputs[i], b.Decided[i], b.Halted[i])
				}
			}
			if a.Rounds != b.Rounds || a.Result.Metrics != b.Result.Metrics {
				t.Fatalf("rounds/metrics differ: %d %+v vs %d %+v",
					a.Rounds, a.Result.Metrics, b.Rounds, b.Result.Metrics)
			}
		})
	}
}
