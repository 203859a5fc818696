package main

import (
	"sort"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by 20% and more for
// tens of seconds to minutes at a time, as neighbours load the machine.
// CPU time drifts with wall time, so neither clock alone gives a steady
// figure. The timed run therefore times a fixed reference kernel after
// every instance and scales its time metrics to the host speed at which
// the kernel takes refNominal:
//
//	reported = measured × refNominal / median(kernel time in this run)
//
// The kernel lives in the benchmark and calls none of the repository's
// code. It allocates nothing, so it never assists the garbage collector
// with the instances' garbage, and the program's own allocation behaviour
// cannot change its time. A change to the program therefore moves the
// reported figures exactly as it moves the measured ones; only the host's
// drift cancels. Over 28 s windows of sim-core-ideal on a 2-vCPU Xeon host
// the scaling cut the window-to-window range of the median instance time
// from 12% to 7%, and of the 90th percentile from 15% to 8%.

// refNominal is the reference kernel's time at the nominal host speed,
// about its median on a 2-vCPU Xeon host.
const refNominal = 1200 * time.Microsecond

// refEntries is the reference kernel's map size.
const refEntries = 20000

// refMap is the reference kernel's table, allocated once: clear keeps its
// buckets, and its keys and values hold no pointers for the collector to
// scan.
var refMap = make(map[uint64]uint64, refEntries)

// refKernel runs the reference kernel once and returns its wall time: it
// refills the table and probes it, hits and misses.
func refKernel() time.Duration {
	start := time.Now()
	clear(refMap)
	for i := uint64(0); i < refEntries; i++ {
		refMap[i*0x9E3779B97F4A7C15] = i
	}
	hits := 0
	for i := uint64(0); i < 2*refEntries; i++ {
		if _, ok := refMap[i*0x9E3779B97F4A7C15]; ok {
			hits++
		}
	}
	d := time.Since(start)
	if hits != refEntries {
		panic("perfbench: reference kernel lost entries")
	}
	return d
}

// hostScale is refNominal over the median of the kernel times: a time
// measured on a host running slower than nominal is multiplied by a
// factor below 1.
func hostScale(kernel []time.Duration) float64 {
	if len(kernel) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), kernel...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return refNominal.Seconds() / s[(len(s)-1)/2].Seconds()
}
