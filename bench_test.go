package ccba

// The benchmark harness regenerates every experiment table (E1–E12 in
// DESIGN.md §3, one benchmark per table) and measures the substrate hot
// paths. Run:
//
//	go test -bench=. -benchmem
//
// The end-to-end protocol and trial-sweep cases are cmd/bench's
// BenchmarkCases. The En benchmarks report the headline quantity of their experiment as a
// custom metric so regressions in the *reproduced result* — not just the
// runtime — are visible.

import (
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/sig"
	"ccba/internal/crypto/vrf"
	"ccba/internal/experiments"
	"ccba/internal/fmine"
	"ccba/internal/types"
)

// --- One benchmark per experiment table -----------------------------------

func BenchmarkE1StrongAdaptiveLowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1StrongAdaptive(experiments.Opts{Trials: 3})
		if err != nil {
			b.Fatal(err)
		}
		cheapViolations := res.Rows[0].ViolationRate
		b.ReportMetric(cheapViolations, "violation-rate")
	}
}

func BenchmarkE2MulticastComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2MulticastComplexity(experiments.Opts{Trials: 1}, 512)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: core multicasts at the largest n (flat in n ⇒ ~O(λ²)).
		var last experiments.E2Row
		for _, r := range res.Rows {
			if r.Protocol == "core (subquadratic)" {
				last = r
			}
		}
		b.ReportMetric(last.Multicasts, "multicasts@n=512")
		b.ReportMetric(last.Rounds, "rounds")
	}
}

func BenchmarkE3NoSetupAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3NoSetup(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].Corruptions, "corruptions")
		b.ReportMetric(res.Rows[len(res.Rows)-1].ViolationRate, "violation-rate")
	}
}

func BenchmarkE4TerminatePropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4TerminatePropagation(experiments.Opts{Trials: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PSpreadLE1, "P[spread<=1]")
	}
}

func BenchmarkE5CommitteeConcentration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5CommitteeConcentration(experiments.Opts{Trials: 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].PCorruptQuorum, "P[corrupt-quorum]@λ=160")
	}
}

func BenchmarkE6GoodIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6GoodIteration(experiments.Opts{Trials: 500})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].PGood, "P[good-iteration]")
	}
}

func BenchmarkE7SafetyTrials(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E7SafetyTrials(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalViolations), "violations")
	}
}

func BenchmarkE8BitSpecificAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E8BitSpecificAblation(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].AttackBroke), "strawman-broken")
		b.ReportMetric(float64(res.Rows[2].AttackBroke), "bit-specific-broken")
	}
}

func BenchmarkE9ProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9ProtocolComparison(experiments.Opts{Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
		viol := 0
		for _, r := range res.Rows {
			viol += r.Violations
		}
		b.ReportMetric(float64(viol), "violations")
	}
}

func BenchmarkE10PhaseKing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10PhaseKing(experiments.Opts{Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.SampledMulticasts, "sampled-multicasts@n=256")
	}
}

func BenchmarkE11ResilienceFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11ResilienceFrontier(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		viol := 0
		for _, r := range res.Rows {
			viol += r.SafetyViolations
		}
		b.ReportMetric(float64(viol), "safety-violations")
	}
}

func BenchmarkE12NetworkModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E12NetworkModels(experiments.Opts{Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		viol := 0
		for _, r := range res.Rows {
			viol += r.SafetyViol
		}
		b.ReportMetric(float64(viol), "safety-violations")
	}
}

// --- Substrate micro-benchmarks --------------------------------------------

func BenchmarkVRFEval(b *testing.B) {
	var seed [32]byte
	_, sk := sig.KeyFromSeed(seed)
	msg := []byte("ACK/iter=7/bit=1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vrf.Eval(sk, msg)
	}
}

func BenchmarkVRFVerify(b *testing.B) {
	var seed [32]byte
	pk, sk := sig.KeyFromSeed(seed)
	msg := []byte("ACK/iter=7/bit=1")
	_, proof := vrf.Eval(sk, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := vrf.Verify(pk, msg, proof); !ok {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkFmineIdealMine(b *testing.B) {
	f := fmine.NewIdeal([32]byte{1}, func(fmine.Tag) float64 { return 0.2 })
	m := f.Miner(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Mine(fmine.Tag{Domain: "bench", Type: 1, Iter: uint32(i), Bit: types.Zero})
	}
}

func BenchmarkFmineRealMine(b *testing.B) {
	pub, secrets := pki.Setup(4, [32]byte{1})
	f := fmine.NewReal(pub, secrets, func(fmine.Tag) float64 { return 0.2 })
	m := f.Miner(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Mine(fmine.Tag{Domain: "bench", Type: 1, Iter: uint32(i), Bit: types.Zero})
	}
}

func BenchmarkPKISetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var seed [32]byte
		seed[0] = byte(i)
		pki.Setup(100, seed)
	}
}
