package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	set := func(vals ...float64) runs {
		r := runs{"w": {}}
		for i, v := range vals {
			r["w"][string(rune('a'+i))] = map[string]float64{"t": v, "rounds_per_instance": float64(i)}
		}
		return r
	}
	parent := set(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10)
	for _, c := range []struct {
		name   string
		change runs
		want   string
	}{
		{"same", set(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10), "within bound"},
		{"faster", set(8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.02, 7.98, 8), "better"},
		{"slower", set(13, 13.1, 12.9, 13, 13.05, 12.95, 13, 13.02, 12.98, 13), "worse"},
		{"noisy", set(5, 15, 8, 12, 6, 14, 10, 9, 11, 10), "unresolved"},
	} {
		if got := verdict(parent, c.change, "w", "t", "lower", 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(parent, set(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "w", "rounds_per_instance", "lower", 0.1); got != "match" {
		t.Errorf("same counters: %q", got)
	}
	shifted := set(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	shifted["w"]["a"]["rounds_per_instance"] = 99
	if got := verdict(parent, shifted, "w", "rounds_per_instance", "lower", 0.1); got != "MISMATCH" {
		t.Errorf("changed counter: %q", got)
	}
}

func TestVerdictMissingFails(t *testing.T) {
	a := runs{"w": {"1": {"t": 1, "rounds_per_instance": 3}}}
	for _, c := range []struct {
		name   string
		b      runs
		metric string
		want   string
	}{
		{"no workload", runs{}, "t", "MISSING"},
		{"no metric", runs{"w": {"1": {"rounds_per_instance": 3}}}, "t", "MISSING"},
		{"counter missing", runs{"w": {"1": {"t": 1}}}, "rounds_per_instance", "MISSING"},
		{"no shared seeds", runs{"w": {"2": {"t": 1, "rounds_per_instance": 3}}}, "rounds_per_instance", "MISSING (no shared seeds)"},
	} {
		got := verdict(a, c.b, "w", c.metric, "lower", 0.1)
		if got != c.want || !failing[got] {
			t.Errorf("%s: verdict %q (failing %v), want failing %q", c.name, got, failing[got], c.want)
		}
	}
}

// TestCompareFailsOnMissingWorkload runs the command over two result sets
// where the second lacks a workload the benchmark defines.
func TestCompareFailsOnMissingWorkload(t *testing.T) {
	dir := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	write(bench, `{"workloads":[{"name":"x"},{"name":"y"}],
		"end_to_end":[{"name":"t","unit":"s","better":"lower","bound":0.1}]}`)
	line := `{"correct":true,"attempted":1,"failed":0,"metrics":{"t":{"value":1,"unit":"s"}}}`
	write(filepath.Join(dir, "a", "x.1.json"), line)
	write(filepath.Join(dir, "a", "y.1.json"), line)
	write(filepath.Join(dir, "b", "x.1.json"), line)
	var out bytes.Buffer
	err := run([]string{"-bench", bench, filepath.Join(dir, "a"), filepath.Join(dir, "b")}, &out)
	if err == nil || !strings.Contains(out.String(), "MISSING") {
		t.Errorf("compare with a missing workload: err %v, output\n%s", err, out.String())
	}
	write(filepath.Join(dir, "b", "y.1.json"), line)
	out.Reset()
	if err := run([]string{"-bench", bench, filepath.Join(dir, "a"), filepath.Join(dir, "b")}, &out); err != nil {
		t.Errorf("compare of equal sets: %v\n%s", err, out.String())
	}
}
