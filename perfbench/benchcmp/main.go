// Command benchcmp compares two result sets of the repository's benchmark.
// A result set is a directory of files named <workload>.<seed>.json, each
// holding the output of one timed run (the last line is the result), as
// perfbench/sweep.sh writes them:
//
//	go run ./benchcmp -bench ../BENCHMARK.json parent/ change/
//
// For every workload and end-to-end metric it prints both sides' median and
// quartiles and one verdict: better, within bound, worse, or unresolved
// when a side's spread is wider than the metric's bound. The deterministic
// counters must match exactly between runs of the same seed. A workload or
// metric missing from either side, or a deterministic counter with no seed
// both sides ran, fails the compare like a worse metric does. With one
// directory it prints each metric's spread and whether it is below a third
// of its bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// exact are the end-to-end metrics that are deterministic per seed.
var exact = map[string]bool{
	"rounds_per_instance":      true,
	"msg_bytes_per_instance":   true,
	"mcast_bytes_per_instance": true,
}

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runs maps workload → seed → metric → value.
type runs map[string]map[string]map[string]float64

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: benchcmp [-bench BENCHMARK.json] dir [dir]")
	}
	buf, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var b benchmark
	if err := json.Unmarshal(buf, &b); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	sets := make([]runs, fs.NArg())
	for i, dir := range fs.Args() {
		if sets[i], err = load(dir); err != nil {
			return err
		}
	}
	failed := false
	for _, w := range b.Workloads {
		fmt.Fprintf(out, "%s\n", w.Name)
		for _, m := range b.EndToEnd {
			a := values(sets[0], w.Name, m.Name)
			if len(sets) == 1 {
				q := quartiles(a)
				steady := "steady"
				if len(a) == 0 {
					steady, failed = "MISSING", true
				} else if spread(q) >= m.Bound/3 {
					steady = "NOT steady"
				}
				fmt.Fprintf(out, "  %-26s n=%-2d %s spread %6.2f%% (bound %g%%) %s\n",
					m.Name, len(a), fmtQ(q), 100*spread(q), 100*m.Bound, steady)
				continue
			}
			c := values(sets[1], w.Name, m.Name)
			v := verdict(sets[0], sets[1], w.Name, m.Name, m.Better, m.Bound)
			if failing[v] {
				failed = true
			}
			fmt.Fprintf(out, "  %-26s A %s  B %s  %+6.2f%%  %s\n",
				m.Name, fmtQ(quartiles(a)), fmtQ(quartiles(c)),
				100*(median(c)/median(a)-1), v)
		}
	}
	if failed {
		return fmt.Errorf("a metric got worse or is missing, or a deterministic counter changed")
	}
	return nil
}

// load reads every <workload>.<seed>.json in dir.
func load(dir string) (runs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := runs{}
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".json")
		dot := strings.LastIndexByte(base, '.')
		if dot < 0 {
			return nil, fmt.Errorf("%s: want <workload>.<seed>.json", f)
		}
		w, seed := base[:dot], base[dot+1:]
		r, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run was not correct", f)
		}
		if out[w] == nil {
			out[w] = map[string]map[string]float64{}
		}
		out[w][seed] = map[string]float64{}
		for name, m := range r.Metrics {
			out[w][seed][name] = m.Value
		}
	}
	return out, nil
}

func lastResult(path string) (result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(buf))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

func values(r runs, workload, metric string) []float64 {
	var out []float64
	for _, m := range r[workload] {
		if v, ok := m[metric]; ok {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// failing are the verdicts that fail the compare.
var failing = map[string]bool{
	"worse":                     true,
	"MISMATCH":                  true,
	"MISSING":                   true,
	"MISSING (no shared seeds)": true,
}

// verdict judges B against A for one workload and metric.
func verdict(a, b runs, workload, metric, better string, bound float64) string {
	va, vb := values(a, workload, metric), values(b, workload, metric)
	if len(va) == 0 || len(vb) == 0 {
		return "MISSING"
	}
	if exact[metric] {
		shared := 0
		for seed, ma := range a[workload] {
			mb, ok := b[workload][seed]
			if !ok {
				continue
			}
			vA, okA := ma[metric]
			vB, okB := mb[metric]
			if !okA || !okB {
				return "MISSING"
			}
			shared++
			if vA != vB {
				return "MISMATCH"
			}
		}
		if shared == 0 {
			return "MISSING (no shared seeds)"
		}
		return "match"
	}
	// gain is positive when B is better than A.
	gain := func(x, y float64) float64 {
		if better == "higher" {
			return y - x
		}
		return x - y
	}
	qa, qb := quartiles(va), quartiles(vb)
	ma, mb := qa[1], qb[1]
	allBetter := gain(va[len(va)-1], vb[0]) > 0 && gain(va[0], vb[len(vb)-1]) > 0
	if spread(qa) > bound || spread(qb) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if -gain(ma, mb) > bound*math.Abs(ma) {
		return "worse"
	}
	if gain(ma, mb) > qa[2]-qa[0] && wins(a, b, workload, metric, gain) {
		return "better"
	}
	return "within bound"
}

// wins reports whether B beats A on at least nine in ten seeds both ran.
func wins(a, b runs, workload, metric string, gain func(x, y float64) float64) bool {
	n, won := 0, 0
	for seed, ma := range a[workload] {
		if mb, ok := b[workload][seed]; ok {
			n++
			if gain(ma[metric], mb[metric]) > 0 {
				won++
			}
		}
	}
	return n > 0 && 10*won >= 9*n
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

func median(sorted []float64) float64 { return quartiles(sorted)[1] }

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}
