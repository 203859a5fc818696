package ccba

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/transport"
)

// The trace goldens extend the fixed-seed goldens one level down: not just
// the end state, but the canonical JSONL of every round-lifecycle event
// (DESIGN.md §10). The digest below pins the core-ideal-n80 trace; every
// execution regime — serial and sharded stepping, and the live chan
// cluster at Δ=1 — must reproduce it byte for byte, which is what makes
// cmd/tracediff's line-by-line alignment sound.
const traceGoldenDigest = "7dbfcf95599988a9"

// traceJSONL runs cfg through run with a fresh recorder attached and
// returns the exported canonical JSONL.
func traceJSONL(t *testing.T, cfg Config, run func(*testing.T, Config) *Report) []byte {
	t.Helper()
	rep, trace := traceRun(t, cfg, run)
	if !rep.Ok() {
		t.Fatalf("violation: consistency=%v validity=%v termination=%v",
			rep.Consistency, rep.Validity, rep.Termination)
	}
	return trace
}

// traceRun runs cfg through run with a fresh recorder attached and returns
// the report and the exported canonical JSONL, whatever the verdicts.
func traceRun(t *testing.T, cfg Config, run func(*testing.T, Config) *Report) (*Report, []byte) {
	t.Helper()
	rec := obs.NewRecorder(0)
	cfg.Tracer = rec
	rep := run(t, cfg)
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

func traceDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// Every node layout (sparse_equiv_test.go) at every stepping-worker count
// reproduces the golden trace: serial and parallel run the map layout,
// sparse-wK runs Run's compact layout at K workers.
func TestTraceGoldenAcrossEngines(t *testing.T) {
	variants := []struct {
		name    string
		run     func(*testing.T, Config) *Report
		workers int
	}{
		{"serial", runMapLayout, stepWorkers[0]},
		{"parallel", runMapLayout, stepWorkers[1]},
		{"sparse-w1", runSim, 1},
		{"sparse-w4", runSim, 4},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := goldenCases[0].cfg // core-ideal-n80
			cfg.Seed[0] = 7
			cfg.StepWorkers = v.workers
			if got := traceDigest(traceJSONL(t, cfg, v.run)); got != traceGoldenDigest {
				t.Errorf("trace digest = %s, want golden %s; debug with cmd/tracediff", got, traceGoldenDigest)
			}
		})
	}
}

// Sharded stepping under the adversary's envelope window: a flip attack
// (adaptive corruptions and injections every round) must produce the same
// report and the same trace at every stepping-worker count.
func TestTraceFlipAcrossWorkers(t *testing.T) {
	run := func(workers int) (*Report, []byte) {
		cfg := Config{Protocol: Core, N: 120, F: 36, Lambda: 20, StepWorkers: workers}
		cfg.Seed[0] = 7
		adv, err := NewAdversary("flip", cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Adversary = adv
		return traceRun(t, cfg, runSim)
	}
	a, aTrace := run(stepWorkers[0])
	if a.NumCorrupt() == 0 {
		t.Fatal("flip adversary corrupted nobody; the window path went unexercised")
	}
	b, bTrace := run(stepWorkers[1])
	if a.Rounds != b.Rounds || a.Result.Metrics != b.Result.Metrics || outputsDigest(a) != outputsDigest(b) {
		t.Fatalf("reports differ: serial %d %+v %s, parallel %d %+v %s",
			a.Rounds, a.Result.Metrics, outputsDigest(a), b.Rounds, b.Result.Metrics, outputsDigest(b))
	}
	for i := range a.Corrupt {
		if a.Corrupt[i] != b.Corrupt[i] || a.Halted[i] != b.Halted[i] {
			t.Fatalf("node %d: serial corrupt/halted (%v,%v), parallel (%v,%v)",
				i, a.Corrupt[i], a.Halted[i], b.Corrupt[i], b.Halted[i])
		}
	}
	if fmt.Sprint(a.Consistency, a.Validity, a.Termination) != fmt.Sprint(b.Consistency, b.Validity, b.Termination) {
		t.Fatalf("verdicts differ: serial (%v,%v,%v), parallel (%v,%v,%v)",
			a.Consistency, a.Validity, a.Termination, b.Consistency, b.Validity, b.Termination)
	}
	if !bytes.Equal(aTrace, bTrace) {
		t.Errorf("flip trace differs between worker counts (%d vs %d bytes); debug with cmd/tracediff",
			len(aTrace), len(bTrace))
	}
}

func TestTraceClusterMatchesSim(t *testing.T) {
	cfg := goldenCases[0].cfg
	cfg.Seed[0] = 7
	sim := traceJSONL(t, cfg, runSim)

	rec := obs.NewRecorder(0)
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	rep, err := cluster.Run(context.Background(), cfg, netw, cluster.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violation: consistency=%v validity=%v termination=%v",
			rep.Consistency, rep.Validity, rep.Termination)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), sim) {
		t.Errorf("cluster trace differs from sim (%d vs %d bytes); debug with cmd/tracediff",
			buf.Len(), len(sim))
	}
}

// Tracing must not perturb the execution it observes: the traced run's end
// state still matches the fixed-seed golden.
func TestTraceDoesNotPerturbGolden(t *testing.T) {
	tc := goldenCases[0]
	cfg := tc.cfg
	cfg.Seed[0] = 7
	cfg.Tracer = obs.NewRecorder(0)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputsDigest(rep); got != tc.outputs {
		t.Errorf("outputs digest = %s, want golden %s", got, tc.outputs)
	}
	if rep.Rounds != tc.rounds {
		t.Errorf("rounds = %d, want golden %d", rep.Rounds, tc.rounds)
	}
	if rep.Metrics != tc.metrics {
		t.Errorf("metrics = %+v, want golden %+v", rep.Metrics, tc.metrics)
	}
}
