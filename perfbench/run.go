package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ccba"
	"ccba/internal/aba"
	"ccba/internal/fmine"
	"ccba/internal/transport"
)

const (
	// minInstances is the fewest instances any workload's timed run
	// measures: it leaves ten instances beyond instance_s_p90.
	minInstances = 102
	// setupSamples is how many times a timed run sets up an instance to
	// report the median set-up time.
	setupSamples = 31
	// maxReported caps the failures a run describes on stderr.
	maxReported = 5
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runStatus counts attempted and failed instances and reports failures.
type runStatus struct {
	log       io.Writer
	attempted int
	failed    int
	mismatch  error
}

func (s *runStatus) note(i int, o outcome) {
	s.attempted++
	if !o.failed() {
		return
	}
	s.failed++
	if s.failed <= maxReported {
		fmt.Fprintf(s.log, "perfbench: instance %d failed: %v\n", i, o.problem())
	}
}

// compare requires two executions of instance i to agree exactly.
func (s *runStatus) compare(i int, a, b outcome) {
	if a.err != nil || b.err != nil || s.mismatch != nil {
		return
	}
	if err := sameCounters(a.c, b.c); err != nil {
		s.mismatch = fmt.Errorf("instance %d executed twice with different results: %w", i, err)
	}
}

func (s *runStatus) result(m map[string]metric) result {
	if s.mismatch != nil {
		fmt.Fprintln(s.log, "perfbench:", s.mismatch)
	}
	return result{
		Correct:   s.failed == 0 && s.mismatch == nil,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   m,
	}
}

// timedRun is a run with tracing off: a closed loop over instances through
// the public entry points for at least the given duration and w.counted
// instances, reporting the end-to-end metrics.
//
// The loop also sets up setupSamples instances, spread evenly over its
// first w.counted instances, and reports their median as setup_s. Host
// speed on a shared machine drifts over seconds; spreading the samples
// lets setup_s see the same mix of fast and slow periods as the instances.
// Their wall time, CPU time and allocations are left out of the loop's
// totals. After every instance the loop also times the reference kernel,
// whose time is left out too, and the time metrics are scaled by
// hostScale (hostspeed.go).
func timedRun(w *workload, base [32]byte, dur time.Duration, log io.Writer) (result, error) {
	st := &runStatus{log: log}

	// One untimed pass over the cases warms the process and records the
	// reference each case's first timed execution must repeat exactly.
	ref := make([]outcome, len(w.cases))
	for i := range ref {
		ref[i] = w.runPublic(base, i)
	}
	refKernel()

	stride := max(w.counted/setupSamples, 1)
	var setups []float64
	var kernel []time.Duration
	var aside asideCost

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var durs []float64
	var rounds, msgBytes, mcastBytes float64
	for i := 0; ; i++ {
		if i%stride == 0 && len(setups) < setupSamples {
			var err error
			aside.do(func() {
				// Each sample starts on a collected heap, so it does not
				// pay for the instances' garbage.
				runtime.GC()
				cfg, _ := w.config(base, i)
				var d time.Duration
				d, err = setupOnce(w.kind, cfg)
				setups = append(setups, d.Seconds())
			})
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
		}
		t := time.Now()
		o := w.runPublic(base, i)
		durs = append(durs, time.Since(t).Seconds())
		// The kernel allocates nothing and runs on this goroutine alone,
		// so its own wall time is all it adds to the totals. Garbage
		// collection of the instances' garbage on the other CPUs during
		// it still counts toward the instances.
		k := refKernel()
		kernel = append(kernel, k)
		aside.wall += k
		aside.cpu += k.Seconds()
		st.note(i, o)
		if i < len(ref) {
			st.compare(i, ref[i], o)
		}
		if i < w.counted {
			rounds += float64(o.c.rounds)
			msgBytes += float64(o.c.metrics.HonestMessageBytes)
			mcastBytes += float64(o.c.metrics.HonestMulticastBytes)
		}
		if len(durs) >= w.counted && time.Since(start)-aside.wall >= dur {
			break
		}
	}
	elapsed := (time.Since(start) - aside.wall).Seconds()
	cpu := cpuTime() - cpu0 - aside.cpu
	runtime.ReadMemStats(&ms1)

	n := float64(len(durs))
	sort.Float64s(durs)
	sort.Float64s(setups)
	scale := hostScale(kernel)
	fmt.Fprintf(log, "perfbench: %s: %d instances, reference kernel median %.3f ms, time metrics scaled by %.4f; measured: %.4f instances/s, p50 %.4f s, p90 %.4f s, setup %.6f s, cpu %.4f s/instance\n",
		w.name, len(durs), refNominal.Seconds()*1e3/scale, scale, n/elapsed, quantile(durs, 0.5), quantile(durs, 0.9), quantile(setups, 0.5), cpu/n)
	m := map[string]metric{
		"instances_per_s":          {n / elapsed / scale, "1/s"},
		"instance_s_p50":           {quantile(durs, 0.5) * scale, "s"},
		"instance_s_p90":           {quantile(durs, 0.9) * scale, "s"},
		"setup_s":                  {quantile(setups, 0.5) * scale, "s"},
		"cpu_s_per_instance":       {cpu / n * scale, "s"},
		"alloc_bytes_per_instance": {float64(ms1.TotalAlloc-ms0.TotalAlloc-aside.bytes) / n, "B"},
		"allocs_per_instance":      {float64(ms1.Mallocs-ms0.Mallocs-aside.allocs) / n, "1"},
		"peak_mem_bytes":           {peakMemBytes(), "B"},
		"rounds_per_instance":      {rounds / float64(w.counted), "1"},
		"msg_bytes_per_instance":   {msgBytes / float64(w.counted), "B"},
		"mcast_bytes_per_instance": {mcastBytes / float64(w.counted), "B"},
		"ok_frac":                  {float64(st.attempted-st.failed) / float64(st.attempted), "1"},
	}
	return st.result(m), nil
}

// asideCost accumulates the wall time, CPU time and allocations of work the
// timed loop does besides its instances, to leave them out of its totals.
type asideCost struct {
	wall          time.Duration
	cpu           float64
	bytes, allocs uint64
}

func (a *asideCost) do(f func()) {
	t, c := time.Now(), cpuTime()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	a.bytes += m1.TotalAlloc - m0.TotalAlloc
	a.allocs += m1.Mallocs - m0.Mallocs
	a.cpu += cpuTime() - c
	a.wall += time.Since(t)
}

// setupOnce builds one instance without running it: PKI, suite and nodes
// through the scenario builder, the ACS node set for the event runtime, and
// for the live cluster also the TCP mesh dial.
func setupOnce(kind runtimeKind, cfg ccba.Config) (time.Duration, error) {
	start := time.Now()
	switch kind {
	case lockstep:
		_, _, _, err := ccba.BuildNodes(cfg)
		return time.Since(start), err
	case event:
		norm, err := cfg.Normalized()
		if err != nil {
			return 0, err
		}
		buildACS(norm, fmine.NewIdeal(norm.Seed, aba.CoinProb))
		return time.Since(start), nil
	default:
		netw, err := transport.NewTCPNetwork(context.Background(), transport.LoopbackAddrs(cfg.N), transport.TCPOptions{})
		if err != nil {
			return 0, err
		}
		_, _, _, err = ccba.BuildNodes(cfg)
		d := time.Since(start)
		netw.Close()
		return d, err
	}
}

// tracedRun executes each instance twice on the same seed, once through the
// public entry points and once assembled with every layer wrapped, for at
// least the given duration and minTraced instances. The two executions
// must agree exactly; the run reports the per-layer metrics. The traced
// execution of instance 0 also captures the traffic the codec is measured
// on. On the live cluster a CPU profile covers the run.
func tracedRun(w *workload, base [32]byte, dur time.Duration, log io.Writer) (result, error) {
	st := &runStatus{log: log}
	t := newTracer(w)
	var prof *cpuProfile
	if w.kind == live {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return result{}, err
		}
	}
	tap := &capture{}
	var plain, traced []float64
	start := time.Now()
	for i := 0; i < minTraced || time.Since(start) < dur; i++ {
		cfg, c := w.config(base, i)
		runTraced := func() outcome {
			cfg, err := withAdversary(cfg, c, i)
			if err != nil {
				return outcome{err: err}
			}
			var tp *capture
			if i == 0 {
				tp = tap
			}
			t0 := time.Now()
			o := t.instance(cfg, tp)
			traced = append(traced, time.Since(t0).Seconds())
			return o
		}
		runPlain := func() outcome {
			t0 := time.Now()
			o := w.runPublic(base, i)
			plain = append(plain, time.Since(t0).Seconds())
			return o
		}
		// Alternate the order so neither side always runs on the other's
		// garbage.
		var a, b outcome
		if i%2 == 0 {
			a = runPlain()
			b = runTraced()
		} else {
			b = runTraced()
			a = runPlain()
		}
		// One instance counts once, failed if either execution failed.
		if b.failed() {
			st.note(i, b)
		} else {
			st.note(i, a)
		}
		st.compare(i, a, b)
	}

	if prof != nil {
		var err error
		if t.cpu, err = prof.stop(); err != nil {
			return result{}, err
		}
	}

	cfg, _ := w.config(base, 0)
	codec, err := measureCodec(cfg.Protocol, tap)
	if err != nil {
		return result{}, fmt.Errorf("codec: %w", err)
	}

	printSelfTimes(log, w.name, w.kind, t.selfTimes())
	sort.Float64s(plain)
	sort.Float64s(traced)
	m := t.metrics(codec)
	m["trace.overhead_ratio"] = metric{quantile(traced, 0.5) / quantile(plain, 0.5), "1"}
	return st.result(m), nil
}

// metrics turns the accumulated spans and counters into per-instance
// per-layer metrics. Layers the workload does not reach report 0.
func (t *tracer) metrics(codec codecStats) map[string]metric {
	k := float64(t.instances)
	sec := func(d time.Duration) metric { return metric{d.Seconds() / k, "s"} }
	cnt := func(v int) metric { return metric{float64(v) / k, "count"} }
	ratio := func(a, b int) metric {
		if b == 0 {
			return metric{0, "1"}
		}
		return metric{float64(a) / float64(b), "1"}
	}
	zeroS, zeroC := metric{0, "s"}, metric{0, "count"}
	m := map[string]metric{
		"trace.instances":            {k, "count"},
		"scenario.build_s":           sec(t.incl[layBuild]),
		"scenario.evaluate_s":        sec(t.incl[layEvaluate]),
		"pki.setup_s":                sec(t.incl[layPKI]),
		"fmine.mine_calls":           cnt(t.fm.mineCalls),
		"fmine.mine_s":               sec(t.incl[layMine]),
		"fmine.mine_win_ratio":       ratio(t.fm.mineWins, t.fm.mineCalls),
		"fmine.verify_calls":         cnt(t.fm.verifyCalls),
		"fmine.verify_s":             sec(t.incl[layVerify]),
		"fmine.verify_cache_entries": cnt(t.cache),
		"core.step_calls":            zeroC,
		"core.step_self_s":           zeroS,
		"core.sends":                 zeroC,
		"netsim.run_s":               zeroS,
		"netsim.self_s":              zeroS,
		"netsim.rounds":              zeroC,
		"netsim.deliveries":          zeroC,
		"acs.deliver_calls":          zeroC,
		"acs.deliver_self_s":         zeroS,
		"acs.sends":                  zeroC,
		"wire.msgs":                  {float64(codec.msgs), "count"},
		"wire.bytes":                 {float64(codec.bytes), "B"},
		"wire.encode_s":              {codec.encode.Seconds(), "s"},
		"wire.decode_s":              {codec.decode.Seconds(), "s"},
		"transport.dial_s":           sec(t.dial),
		"transport.sends":            cnt(int(t.tp.sends.Load())),
		"transport.send_s":           sec(time.Duration(t.tp.sendNs.Load())),
		"transport.payload_bytes":    {float64(t.tp.payloadBytes.Load()) / k, "B"},
		"transport.recv_calls":       cnt(int(t.tp.recvCalls.Load())),
		"transport.recv_wait_s":      sec(time.Duration(t.tp.recvNs.Load())),
		"cluster.run_s":              sec(t.run),
		"cluster.cpu_s":              zeroS,
		"transport.cpu_s":            zeroS,
		"wire.cpu_s":                 zeroS,
		"cluster.barrier_s_p50":      zeroS,
		"cluster.barrier_s_p90":      zeroS,
		"gc.cpu_s":                   {t.gcCPU / k, "s"},
		"gc.cycles":                  {float64(t.gcCycles) / k, "count"},
	}
	switch t.w.kind {
	case lockstep:
		m["core.step_calls"] = cnt(t.node.calls)
		m["core.step_self_s"] = sec(t.self[layNode])
		m["core.sends"] = cnt(t.node.sends)
		m["netsim.run_s"] = sec(t.incl[layRun])
		m["netsim.self_s"] = sec(t.self[layRun])
		m["netsim.rounds"] = cnt(t.rounds)
		m["netsim.deliveries"] = cnt(t.node.deliveries)
	case event:
		m["acs.deliver_calls"] = cnt(t.node.calls)
		m["acs.deliver_self_s"] = sec(t.self[layNode])
		m["acs.sends"] = cnt(t.node.sends)
	case live:
		for _, mod := range []string{"cluster", "transport", "wire"} {
			m[mod+".cpu_s"] = metric{t.cpu[mod] / k, "s"}
		}
		sort.Float64s(t.barriers)
		m["cluster.barrier_s_p50"] = metric{quantile(t.barriers, 0.5), "s"}
		m["cluster.barrier_s_p90"] = metric{quantile(t.barriers, 0.9), "s"}
	}
	for _, s := range schedKeys {
		ss := t.sched[s.name]
		p := "netsim.event." + s.key + "."
		per := func(v float64) float64 {
			if ss.instances == 0 {
				return 0
			}
			return v / float64(ss.instances)
		}
		nsPer := 0.0
		if ss.deliveries > 0 {
			nsPer = float64(ss.self.Nanoseconds()) / float64(ss.deliveries)
		}
		m[p+"run_s"] = metric{per(ss.run.Seconds()), "s"}
		m[p+"self_s"] = metric{per(ss.self.Seconds()), "s"}
		m[p+"deliveries"] = metric{per(float64(ss.deliveries)), "count"}
		m[p+"links"] = metric{per(float64(ss.links)), "count"}
		m[p+"self_ns_per_delivery"] = metric{nsPer, "ns"}
	}
	return m
}

// quantile is the nearest-rank quantile of sorted values: at q = 0.9 over
// n values, n − ⌈0.9n⌉ values lie beyond it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakMemBytes is the process's peak resident set size (VmHWM).
func peakMemBytes() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(buf))
		for sc.Scan() {
			f := bytes.Fields(sc.Bytes())
			if len(f) == 3 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}
