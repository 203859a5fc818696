package main

import "testing"

// BenchmarkCases runs every case of cmd/bench's tables as one sub-benchmark
// with the same run bodies, e.g.
//
//	go test -run '^$' -bench 'Cases/CoreIdealN1000$' -benchmem ./cmd/bench
//
// Heavy cases run only through `cmd/bench -only`.
func BenchmarkCases(b *testing.B) {
	for _, c := range cases {
		if !c.Heavy {
			b.Run(c.Name, benchLoop(singleRunBody(c.Cfg, c.AllowViolations)))
		}
	}
	for _, c := range sweepCases {
		b.Run(c.Name, benchLoop(sweepBody(c)))
	}
	for _, c := range clusterCases {
		b.Run(c.Name, benchLoop(clusterBody(c)))
	}
}
