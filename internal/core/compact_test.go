package core

import (
	"testing"

	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// A compact-mode execution must be indistinguishable from the map-backed
// one in the regime the scenario layer selects it for (lockstep Δ = 1, no
// adversary): same outputs, decisions, rounds, and communication metrics,
// serially and with sharded stepping.
func TestCompactMatchesDense(t *testing.T) {
	const n, f, lambda = 80, 24, 16
	run := func(compact bool, workers int) *netsim.Result {
		cfg := Config{
			N: n, F: f, Lambda: lambda, MaxIters: 60,
			Suite:   fmine.NewIdeal([32]byte{7}, Probabilities(n, lambda)),
			Compact: compact,
		}
		inputs := make([]types.Bit, n)
		for i := range inputs {
			inputs[i] = types.BitFromBool(i%2 == 0)
		}
		nodes, err := NewNodes(cfg, inputs)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := netsim.NewRuntime(netsim.Config{N: n, F: f, MaxRounds: cfg.Rounds(), StepWorkers: workers}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run()
	}
	want := run(false, 1)
	for _, workers := range []int{1, 4} {
		got := run(true, workers)
		if got.Rounds != want.Rounds || got.Metrics != want.Metrics {
			t.Errorf("workers=%d: rounds/metrics = %d %+v, want %d %+v", workers, got.Rounds, got.Metrics, want.Rounds, want.Metrics)
		}
		for i := range want.Outputs {
			if got.Outputs[i] != want.Outputs[i] || got.Decided[i] != want.Decided[i] {
				t.Fatalf("workers=%d: node %d output (%v,%v), want (%v,%v)", workers, i,
					got.Outputs[i], got.Decided[i], want.Outputs[i], want.Decided[i])
			}
		}
	}
}

// The two-slot window must keep the current and previous iteration live,
// recycle the older slot for a new iteration, and hand traffic beyond the
// window a scratch pair that never accumulates.
func TestWindowSetRotation(t *testing.T) {
	cfg := Config{
		N: 9, F: 2, Lambda: 3, MaxIters: 10,
		Suite:   fmine.NewIdeal([32]byte{1}, Probabilities(9, 3)),
		Compact: true,
	}
	n, err := New(cfg, 0, types.Zero)
	if err != nil {
		t.Fatal(err)
	}

	s1 := n.voteSet(1)
	s1[0].Add(5, nil)
	s2 := n.voteSet(2)
	s2[1].Add(6, nil)

	// Both window iterations stay addressable and retain their contents.
	if got := n.voteSet(1); got != s1 || got[0].Count() != 1 {
		t.Fatalf("iteration 1 evicted too early (count %d)", got[0].Count())
	}
	if got := n.voteSet(2); got != s2 || got[1].Count() != 1 {
		t.Fatalf("iteration 2 not retained (count %d)", got[1].Count())
	}

	// Iteration 3 claims the older slot (1), reset for reuse.
	s3 := n.voteSet(3)
	if s3 != s1 {
		t.Fatalf("iteration 3 should recycle iteration 1's slot")
	}
	if s3[0].Count() != 0 || s3[1].Count() != 0 {
		t.Fatalf("recycled slot not reset: counts %d/%d", s3[0].Count(), s3[1].Count())
	}

	// Iteration 1 is now beyond the window: a scratch set that is observed
	// and discarded — two successive accesses must not accumulate.
	stale := n.voteSet(1)
	if stale == s1 || stale == s2 {
		t.Fatalf("stale iteration handed a live window slot")
	}
	stale[0].Add(7, nil)
	if again := n.voteSet(1); again[0].Count() != 0 {
		t.Fatalf("stale scratch accumulated across accesses: count %d", again[0].Count())
	}

	// The vote and commit windows are independent.
	c2 := n.commitSet(2)
	c2[0].Add(8, nil)
	if n.voteSet(2)[0].Contains(8) {
		t.Fatalf("commit window leaked into vote window")
	}
}
