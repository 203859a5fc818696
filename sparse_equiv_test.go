package ccba

import (
	"context"
	"fmt"
	"testing"

	"ccba/internal/netsim"
	"ccba/internal/scenario"
)

// Run chooses the node storage layout from the regime (DESIGN.md §6): under
// the lockstep DeltaOne model with no adversary, core and phase king keep
// the compact two-slot iteration window with interned attestation sets —
// the "sparse" layout. Build keeps the per-iteration maps and owned
// storage — the "dense" layout the live cluster and adversarial runs use.
// The two must be observationally equivalent wherever Run picks compact:
// same rounds, metrics, outputs, decisions, halts and verdicts, for every
// protocol and at every stepping-worker count.

// runMapLayout executes cfg through Build + NewRuntime + Evaluate: the
// owned-storage map layout.
func runMapLayout(t *testing.T, cfg Config) *Report {
	t.Helper()
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	nodes, seize, steps, err := BuildNodes(norm)
	if err != nil {
		t.Fatal(err)
	}
	maxRounds, err := norm.RoundBudget(steps)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := netsim.NewRuntime(netsim.Config{
		N: norm.N, F: norm.F, MaxRounds: maxRounds, Seize: seize, StepWorkers: norm.StepWorkers,
		Tracer: norm.Tracer,
	}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Evaluate(norm, res)
}

// runSim executes cfg through Run, which picks the compact layout in its
// regime.
func runSim(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The fixed-seed goldens (determinism_test.go) reproduce bit for bit under
// Run's compact layout with interned storage, at every stepping-worker
// count.
func TestSparseMatchesGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		for _, workers := range stepWorkers {
			t.Run(fmt.Sprintf("%s/sparse-w%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed[0] = 7
				cfg.StepWorkers = workers
				checkGolden(t, tc, runSim(t, cfg))
			})
		}
	}
}

func TestSparseMatchesDenseAcrossProtocols(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"core-ideal", Config{Protocol: Core, N: 120, F: 36, Lambda: 20}},
		{"core-real", Config{Protocol: Core, N: 48, F: 14, Lambda: 12, Crypto: Real}},
		{"core-broadcast", Config{Protocol: CoreBroadcast, N: 60, F: 18, Lambda: 14, SenderInput: One}},
		{"quadratic", Config{Protocol: Quadratic, N: 31, F: 15}},
		{"phaseking-plain", Config{Protocol: PhaseKingPlain, N: 30, F: 9, Epochs: 8}},
		{"phaseking-sampled", Config{Protocol: PhaseKingSampled, N: 90, F: 18, Lambda: 24, Epochs: 10}},
		{"chenmicali", Config{Protocol: ChenMicali, N: 60, F: 20, Lambda: 24, Epochs: 6}},
		{"dolevstrong", Config{Protocol: DolevStrong, N: 24, F: 8, SenderInput: One}},
		{"committee-echo", Config{Protocol: CommitteeEcho, N: 64, F: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed[0] = 11
			d := runMapLayout(t, cfg)
			for _, workers := range stepWorkers {
				cfg.StepWorkers = workers
				s, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				if d.Rounds != s.Rounds || d.Result.Metrics != s.Result.Metrics {
					t.Fatalf("%s: rounds/metrics: map %d %+v, Run %d %+v",
						label, d.Rounds, d.Result.Metrics, s.Rounds, s.Result.Metrics)
				}
				for i := range d.Outputs {
					if d.Outputs[i] != s.Outputs[i] || d.Decided[i] != s.Decided[i] || d.Halted[i] != s.Halted[i] {
						t.Fatalf("%s node %d: map (%v,%v,%v) Run (%v,%v,%v)", label, i,
							d.Outputs[i], d.Decided[i], d.Halted[i],
							s.Outputs[i], s.Decided[i], s.Halted[i])
					}
				}
				if (d.Consistency == nil) != (s.Consistency == nil) ||
					(d.Validity == nil) != (s.Validity == nil) ||
					(d.Termination == nil) != (s.Termination == nil) {
					t.Fatalf("%s: checker verdicts differ: map (%v,%v,%v) Run (%v,%v,%v)",
						label, d.Consistency, d.Validity, d.Termination,
						s.Consistency, s.Validity, s.Termination)
				}
			}
		})
	}
}

// The stepping-worker count's rules at the facade: negative counts and a
// sharded async run are rejected, with an explanatory error, before any
// nodes are built.
func TestSparseConfigRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative-workers", Config{Protocol: Core, N: 40, F: 12, Lambda: 10, StepWorkers: -1}},
		{"async-workers", Config{Protocol: ABA, N: 16, F: 5, StepWorkers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil {
				t.Fatalf("config %+v unexpectedly accepted", tc.cfg)
			}
			if _, err := RunTrials(tc.cfg, 2); err == nil {
				t.Fatalf("config %+v accepted by RunTrials", tc.cfg)
			}
		})
	}
}
