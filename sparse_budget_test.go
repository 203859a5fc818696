package ccba

import (
	"runtime"
	"testing"
)

// Memory-regression pins for the default run at N = 10,000 (DESIGN.md
// §6). The budgets are ~2× the measured values at the time they were last
// tightened — core-ideal at n=10k measured ≈141k allocs, ≈11 MB cumulative
// allocation, ≈9 MB post-run heap (down from ≈411k allocs / ≈145 MB before
// attestation interning; the old map-layout engine: ≈501k allocs,
// ≈175 MB), and core-real ≈521k allocs / ≈39 MB cumulative with the
// bounded verify cache — so they fail on a reintroduced O(n)-per-round
// buffer, per-node attestation copies, or an unbounded crypto memo, not on
// runtime noise.

func core10kConfig() Config {
	cfg := Config{Protocol: Core, N: 10_000, F: 3_000, Lambda: 40}
	cfg.Seed[0] = 7
	return cfg
}

func coreReal10kConfig() Config {
	cfg := core10kConfig()
	cfg.Crypto = Real
	return cfg
}

func runBudgetCase(t *testing.T, cfg Config) {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
	}
}

func TestSparseAllocBudgetN10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node run; skipped in -short")
	}
	cfg := core10kConfig()
	allocs := testing.AllocsPerRun(1, func() { runBudgetCase(t, cfg) })
	const allocBudget = 300_000
	if allocs > allocBudget {
		t.Errorf("core-ideal n=10k: %.0f allocs/run, budget %d", allocs, allocBudget)
	}
}

func TestSparseHeapBudgetN10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node run; skipped in -short")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runBudgetCase(t, core10kConfig())
	// Read immediately, before collecting the run's garbage: HeapAlloc here
	// approximates the execution's high-water mark.
	runtime.ReadMemStats(&after)
	const totalBudget = 24 << 20 // cumulative allocation over the run
	const heapBudget = 20 << 20  // post-run heap (uncollected)
	if total := after.TotalAlloc - before.TotalAlloc; total > totalBudget {
		t.Errorf("core-ideal n=10k allocated %d MB cumulative, budget %d MB", total>>20, totalBudget>>20)
	}
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > heapBudget {
		t.Errorf("core-ideal n=10k heap grew %d MB, budget %d MB", (after.HeapAlloc-before.HeapAlloc)>>20, heapBudget>>20)
	}
}

// The real-crypto run must stay within the same order of memory as the
// ideal one: Ed25519 costs CPU, and the bounded verify cache plus
// proof-sized tickets may cost a few× the coin table, but nothing may
// reintroduce an O(n·rounds) or unbounded-memo term. This is the budget
// that guards the E13 real-crypto sweep's feasibility at n ≥ 10⁵.
func TestSparseRealBudgetN10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node real-crypto run; skipped in -short")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runBudgetCase(t, coreReal10kConfig())
	runtime.ReadMemStats(&after)
	const allocBudget = 1_100_000
	const totalBudget = 80 << 20
	const heapBudget = 40 << 20
	if allocs := after.Mallocs - before.Mallocs; allocs > allocBudget {
		t.Errorf("core-real n=10k: %d allocs/run, budget %d", allocs, allocBudget)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total > totalBudget {
		t.Errorf("core-real n=10k allocated %d MB cumulative, budget %d MB", total>>20, totalBudget>>20)
	}
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > heapBudget {
		t.Errorf("core-real n=10k heap grew %d MB, budget %d MB", (after.HeapAlloc-before.HeapAlloc)>>20, heapBudget>>20)
	}
}

// Run's compact, interned node storage must allocate strictly less than
// the map layout with owned storage that Build hands out, on the same
// configuration — the point of choosing it. Asserted at n = 2,000 to keep
// the double run cheap.
func TestSparseAllocatesLessThanDense(t *testing.T) {
	measure := func(run func(Config)) (allocs, bytes uint64) {
		cfg := Config{Protocol: Core, N: 2_000, F: 600, Lambda: 40}
		cfg.Seed[0] = 7
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(cfg)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	denseAllocs, denseBytes := measure(func(cfg Config) {
		if rep := runMapLayout(t, cfg); !rep.Ok() {
			t.Fatalf("violation: %v %v %v", rep.Consistency, rep.Validity, rep.Termination)
		}
	})
	sparseAllocs, sparseBytes := measure(func(cfg Config) { runBudgetCase(t, cfg) })
	if sparseAllocs >= denseAllocs {
		t.Errorf("Run allocs %d >= map-layout allocs %d", sparseAllocs, denseAllocs)
	}
	if sparseBytes >= denseBytes {
		t.Errorf("Run bytes %d >= map-layout bytes %d", sparseBytes, denseBytes)
	}
}
