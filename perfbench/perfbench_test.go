package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runCLI runs the benchmark's command line and decodes its last line.
func runCLI(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

// unitsOf returns the name → unit map a run emitted.
func unitsOf(r result) map[string]string {
	out := map[string]string{}
	for name, m := range r.Metrics {
		out[name] = m.Unit
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark says %q", i, s.Workloads[i].Name, w.name)
		}
	}
}

// TestShortestRuns runs every workload at its shortest length, timed and
// traced: no instance may fail, and the emitted metric names and units must
// be exactly BENCHMARK.json's.
func TestShortestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	want := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := want(s.EndToEnd), want(s.PerLayer)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			timed := runCLI(t, "--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", "0")
			if !timed.Correct || timed.Failed != 0 || timed.Attempted != w.counted {
				t.Errorf("timed run: correct=%v failed=%d attempted=%d", timed.Correct, timed.Failed, timed.Attempted)
			}
			if ok := timed.Metrics["ok_frac"].Value; ok != 1 {
				t.Errorf("ok_frac = %v, want 1", ok)
			}
			for name, m := range timed.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; end-to-end metrics are never 0", name, m.Value)
				}
			}
			if got := unitsOf(timed); !equalMaps(got, e2e) {
				t.Errorf("timed run emits %v, BENCHMARK.json lists %v", got, e2e)
			}
			traced := runCLI(t, "--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", "1")
			if !traced.Correct || traced.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d", traced.Correct, traced.Failed)
			}
			if got := unitsOf(traced); !equalMaps(got, layers) {
				t.Errorf("traced run emits %v, BENCHMARK.json lists %v", sortedKeys(got), sortedKeys(layers))
			}
		})
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestTracedMatchesUntraced pins that the hand-assembled traced runtimes
// execute the same program as the public entry points: on a fixed seed,
// every case of every workload agrees exactly on rounds, message and
// multicast counts and bytes, deliveries and outputs.
func TestTracedMatchesUntraced(t *testing.T) {
	var base [32]byte
	base[0] = 42
	for _, w := range workloads {
		tr := newTracer(w)
		for i := range w.cases {
			plain := w.runPublic(base, i)
			cfg, c := w.config(base, i)
			cfg, err := withAdversary(cfg, c, i)
			if err != nil {
				t.Fatal(err)
			}
			traced := tr.instance(cfg, nil)
			if plain.failed() || traced.failed() {
				t.Fatalf("%s case %d: plain %v, traced %v", w.name, i, plain.problem(), traced.problem())
			}
			if err := sameCounters(plain.c, traced.c); err != nil {
				t.Errorf("%s case %d: %v", w.name, i, err)
			}
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such-workload"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
