package main

import (
	"testing"
	"time"
)

// The reference kernel must allocate nothing: an allocation could make it
// assist the collector with the instances' garbage, and the program's
// allocation behaviour would then move the scale.
func TestRefKernelAllocatesNothing(t *testing.T) {
	refKernel()
	if a := testing.AllocsPerRun(5, func() { refKernel() }); a != 0 {
		t.Fatalf("refKernel allocates %v objects per run", a)
	}
}

func TestHostScaleIsNominalOverMedian(t *testing.T) {
	k := []time.Duration{3 * refNominal, refNominal / 2, 2 * refNominal, 9 * refNominal, 2 * refNominal}
	if got := hostScale(k); got != 0.5 {
		t.Fatalf("hostScale = %v, want 0.5 (median kernel time twice nominal)", got)
	}
	if got := hostScale(nil); got != 1 {
		t.Fatalf("hostScale(nil) = %v, want 1", got)
	}
}
