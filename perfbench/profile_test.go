package main

import (
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ccba/internal/transport.(*TCPEndpoint).readLoop": "transport",
		"ccba/internal/crypto/vrf.Eval":                   "crypto/vrf",
		"ccba/internal/cluster.Run.func1":                 "cluster",
		"ccba.Run":                                        "ccba",
		"main.(*tracedEndpoint).Send":                     "perfbench",
		"syscall.Syscall":                                 "",
		"runtime.mallocgc":                                "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU for about d.
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestCPUProfileCountsLabelledWorkOnly pins the profile decoding: CPU spent
// under the traced-execution label, in a goroutine the labelled code
// started too, is billed to the benchmark's own module, and unlabelled CPU
// is left out.
func TestCPUProfileCountsLabelledWorkOnly(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	labelled(func() {
		done := make(chan int)
		go func() { done <- spin(300 * time.Millisecond) }()
		sink += <-done
	})
	sink += spin(300 * time.Millisecond)
	cpu, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range cpu {
		total += s
	}
	if cpu["perfbench"] < 0.15 || total > 0.45 {
		t.Errorf("labelled CPU by module %v (sink %d); want about 0.3 s, all of it perfbench", cpu, sink)
	}
}
