// Command perfbench is the repository's benchmark. It runs one workload —
// a closed loop with one agreement instance in flight — and prints one JSON
// result line:
//
//	go run . --workload sim-core-ideal --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the instances run through the public entry points with
// tracing off and the run reports the end-to-end metrics. With --trace 1
// each instance also runs assembled from public pieces with every layer
// wrapped, the two executions must agree exactly, and the run reports the
// per-layer metrics. README.md maps each layer to the end-to-end metric it
// moves; BENCHMARK.json at the repository root lists workloads and metrics.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Uint64("seed", 1, "workload seed; every instance seed derives from it")
		seconds = fs.Float64("seconds", 20, "how long the run measures")
		trace   = fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		list    = fs.Bool("list", false, "print the workload names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d; want 0 or 1\n", *trace)
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs workload w once with the given workload seed.
func measure(w *workload, seed uint64, dur time.Duration, traced bool, log io.Writer) (result, error) {
	var base [32]byte
	binary.BigEndian.PutUint64(base[:8], seed)
	if traced {
		return tracedRun(w, base, dur, log)
	}
	return timedRun(w, base, dur, log)
}
