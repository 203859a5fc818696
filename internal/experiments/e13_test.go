package experiments

import (
	"math"
	"strings"
	"testing"

	"ccba/internal/scenario"
)

// E13 at reduced scale (core up to n=10,000 — the CI smoke point) must
// already show the paper's separation: the
// quadratic baseline's classical message count fits ≈n², core's fits
// strictly sub-quadratic, and per-node bytes stay ≈flat for core while
// exploding for the baseline.
func TestE13Shape(t *testing.T) {
	res, err := E13ScalingLaw(Opts{Trials: 1}, 10_000, scenario.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	var coreRows, quadRows []E13Row
	for _, r := range res.Rows {
		if strings.HasPrefix(r.Protocol, "core") {
			coreRows = append(coreRows, r)
		} else {
			quadRows = append(quadRows, r)
		}
		if r.Violations != 0 {
			t.Errorf("%s n=%d: %d violations", r.Protocol, r.N, r.Violations)
		}
	}
	if len(coreRows) != 2 || len(quadRows) != 4 {
		t.Fatalf("rows: core=%d quad=%d, want 2/4 at maxN=10000", len(coreRows), len(quadRows))
	}

	// The quadratic baseline's message count is deterministically n²-shaped:
	// the fit must say so.
	if k := res.QuadMsgFit.Exponent; math.Abs(k-2) > 0.15 {
		t.Errorf("quadratic message-count exponent = %.3f, want ≈2", k)
	}
	// Core must be strictly sub-quadratic — the acceptance bar — and in
	// practice ≈linear; 1.5 leaves room for round-count variance at one
	// trial per point.
	if k := res.CoreMsgFit.Exponent; math.IsNaN(k) || k >= 1.5 {
		t.Errorf("core message-count exponent = %.3f, want strictly sub-quadratic (≈1)", k)
	}
	if res.CoreMsgFit.Exponent >= res.QuadMsgFit.Exponent {
		t.Errorf("core exponent %.3f not below quadratic %.3f",
			res.CoreMsgFit.Exponent, res.QuadMsgFit.Exponent)
	}
	// Byte growth separates even harder (the baseline's certificates are
	// O(n)-sized).
	if res.QuadByteFit.Exponent < 2.5 {
		t.Errorf("quadratic byte exponent = %.3f, want ≈3", res.QuadByteFit.Exponent)
	}

	// Per-node bytes: ≈flat for core across a 10× n step, strictly growing
	// for the baseline.
	if first, last := coreRows[0], coreRows[len(coreRows)-1]; last.PerNodeBytes > 4*first.PerNodeBytes {
		t.Errorf("core per-node bytes grew %0.f → %0.f over n %d → %d",
			first.PerNodeBytes, last.PerNodeBytes, first.N, last.N)
	}
	if first, last := quadRows[0], quadRows[len(quadRows)-1]; last.PerNodeBytes < 4*first.PerNodeBytes {
		t.Errorf("quadratic per-node bytes grew only %0.f → %0.f over n %d → %d",
			first.PerNodeBytes, last.PerNodeBytes, first.N, last.N)
	}

	if !strings.Contains(res.Table.String(), "E13") {
		t.Error("table missing title")
	}
	if res.Sweep == nil || len(res.Sweep.Aggs) != len(res.Rows) {
		t.Errorf("sweep missing or misaligned: %v aggs for %d rows", res.Sweep, len(res.Rows))
	}
}

// TestE13RealCrypto pins the real-crypto column's wiring at the smallest
// core point: the Appendix D compiler (Ed25519 VRF mining, bounded verify
// cache) runs violation-free and reports through the
// same rows and table. The full n ≥ 10⁵ real sweep is the CLI/CI setting
// (-e13-crypto real); its k≈1 fit rides on the same code path fitted here.
func TestE13RealCrypto(t *testing.T) {
	res, err := E13ScalingLaw(Opts{Trials: 1}, 1_000, scenario.Real)
	if err != nil {
		t.Fatal(err)
	}
	var coreRows int
	for _, r := range res.Rows {
		if r.Violations != 0 {
			t.Errorf("%s n=%d: %d violations under real crypto", r.Protocol, r.N, r.Violations)
		}
		if strings.HasPrefix(r.Protocol, "core") {
			coreRows++
			if r.TotalMsgs <= 0 || r.PerNodeBytes <= 0 {
				t.Errorf("core n=%d: empty metrics %+v", r.N, r)
			}
		}
	}
	if coreRows != 1 {
		t.Fatalf("core rows = %d, want 1 at maxN=1000", coreRows)
	}
	if !strings.Contains(res.Table.String(), "real crypto") {
		t.Error("table title does not name the crypto mode")
	}
}
