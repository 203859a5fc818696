// Command cluster runs a protocol as a live cluster of concurrent node
// processes over a pluggable transport, instead of inside the lockstep
// simulator — same protocols, same scenario registry, same report JSON as
// cmd/ba, so the two can be diffed for the same seed and configuration.
//
// Transports:
//
//	-transport chan    n nodes in this process, one goroutine each, over
//	                   in-process channels (the default)
//	-transport tcp     a localhost (or cross-host) TCP mesh with
//	                   length-prefixed framing; all n nodes in this process
//	                   by default, or a single node joining a mesh with
//	                   -node and -peers
//
// Examples:
//
//	cluster -n 200 -f 60 -lambda 40
//	cluster -transport chan -n 32 -f 9 -json
//	cluster -transport tcp -n 4 -f 1
//	cluster -transport tcp -crypto real -node 0 -peers 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703,127.0.0.1:7704
//	cluster -scenario quadratic-n49
//	cluster -scenario core-chaos-n32 -json
//	cluster -scenarios
//	cluster -n 24 -f 7 -lambda 8 -chaos-drop 0.25 -json
//	cluster -n 16 -f 4 -delta 2 -round-interval 2ms -chaos-drop 0.2 -chaos-reorder 0.3
//
// The -chaos-* flags (and the Chaos field of a registered scenario) inject a
// deterministic fault schedule below the protocol surface: drops and crash
// windows on seed-chosen faulty senders, reorder/partition holds within the
// Δ bound (DESIGN.md §7). The same declaration lowers to a lockstep network
// model too — the E14 experiment cross-validates the two runtimes.
//
// The multi-process form (-node) runs the Appendix D compiler's real
// crypto for the committee-sampled protocols: the hybrid world's F_mine
// trusted party cannot be split across processes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ccba"
	"ccba/internal/cli"
	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/transport"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	common := cli.Register(fs)
	fs.Lookup("f").Usage = "corruption budget (validation only: live runs are adversary-free)"
	fs.Lookup("scenario").Usage = "run a registered scenario by name (its adversary must be none); other flags override its fields"
	fs.Lookup("trace").Usage += "; at Δ=1 without -round-interval it is byte-identical to cmd/ba -trace of the same config"
	var (
		transportName = fs.String("transport", "chan", "transport: chan (in-process channels) or tcp (length-prefixed framing)")
		node          = fs.Int("node", -1, "run only this node index over TCP, joining the -peers mesh (-1 = all nodes in this process)")
		peers         = fs.String("peers", "", "comma-separated list of all node addresses in node order (tcp)")
		roundTimeout  = fs.Duration("round-timeout", 30*time.Second, "per-round barrier timeout for tcp (chan runs never need one)")
		obsAddr       = fs.String("obs-addr", "", "serve live telemetry on this host:port — /debug/vars (expvar, the \"ccba\" var) and /debug/pprof; port 0 picks a free one")
		obsLinger     = fs.Duration("obs-linger", 0, "keep the -obs-addr endpoint alive this long after the run, so scrapers (CI smoke jobs) can read final counters")

		delta         = fs.Int("delta", 0, "synchronizer delivery bound Δ (0 = the chaos spec's Δ, else 1)")
		roundInterval = fs.Duration("round-interval", 0, "soft per-round deadline; required when the chaos schedule delays traffic (Δ ≥ 2 reorder/jitter/partition holds)")
		chaosDrop     = fs.Float64("chaos-drop", 0, "chaos: per-frame drop rate on the seed-chosen faulty senders' links")
		chaosFaulty   = fs.Int("chaos-faulty", 0, "chaos: number of faulty senders to draw (0 = the config's f when dropping)")
		chaosReorder  = fs.Float64("chaos-reorder", 0, "chaos: probability a data frame is held back about one round (needs Δ ≥ 2)")
		chaosPart     = fs.Int("chaos-partition", 0, "chaos: hold cross-cut traffic to the Δ bound for this many initial rounds (needs Δ ≥ 2)")
		chaosCrashAt  = fs.Int("chaos-crash-from", 0, "chaos: first round of the crash window (with -chaos-crash-rounds)")
		chaosCrashLen = fs.Int("chaos-crash-rounds", 0, "chaos: crash one faulty node for this many rounds, then let it restart")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *common.List {
		return cli.ListScenarios(out)
	}

	cfg, sc, err := common.Config()
	if err != nil {
		return err
	}
	var chaos *ccba.ChaosConfig
	if sc != nil {
		if sc.Adversary != "" && sc.Adversary != "none" {
			return fmt.Errorf("scenario %q runs adversary %q; live clusters execute honest protocols only (use cmd/ba)", *common.Scenario, sc.Adversary)
		}
		if sc.Chaos != nil {
			cc := *sc.Chaos
			chaos = &cc
		}
	}

	if chaos == nil && (common.Set("chaos-drop") || common.Set("chaos-faulty") || common.Set("chaos-reorder") ||
		common.Set("chaos-partition") || common.Set("chaos-crash-from") || common.Set("chaos-crash-rounds")) {
		chaos = &ccba.ChaosConfig{}
	}
	if chaos != nil {
		for name, apply := range map[string]func(){
			"delta":              func() { chaos.Delta = *delta },
			"chaos-drop":         func() { chaos.DropRate = *chaosDrop },
			"chaos-faulty":       func() { chaos.Faulty = *chaosFaulty },
			"chaos-reorder":      func() { chaos.Reorder = *chaosReorder },
			"chaos-partition":    func() { chaos.PartitionRounds = *chaosPart },
			"chaos-crash-from":   func() { chaos.CrashFrom = *chaosCrashAt },
			"chaos-crash-rounds": func() { chaos.CrashRounds = *chaosCrashLen },
		} {
			if common.Set(name) {
				apply()
			}
		}
	}

	opts := cluster.Options{Delta: *delta, RoundInterval: *roundInterval}
	if *transportName == "tcp" {
		opts.RoundTimeout = *roundTimeout
	}
	var rec *ccba.TraceRecorder
	if *common.Trace != "" {
		rec = ccba.NewTraceRecorder(0)
		opts.Tracer = rec
	}
	if *obsAddr != "" {
		tel := obs.NewTelemetry(cfg.N)
		srv, err := obs.Serve(*obsAddr, tel)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		opts.Telemetry = tel
		fmt.Fprintf(os.Stderr, "obs: serving /debug/vars and /debug/pprof/ on %s\n", srv.Addr())
	}
	// The JSON document's net/delta fields: a chaos run reports its injected
	// schedule, a plain run the lockstep-equivalent ∆ = 1 delivery.
	netName, deltaOut := string(ccba.NetDeltaOne), 1
	if chaos != nil {
		netName, deltaOut = "chaos", chaos.EffectiveDelta()
	} else if *delta > 1 {
		deltaOut = *delta
	}

	runLive := func(netw transport.Network) (*cluster.Report, error) {
		if chaos != nil {
			return cluster.RunChaos(ctx, cfg, netw, *chaos, opts)
		}
		return cluster.Run(ctx, cfg, netw, opts)
	}

	var rep *cluster.Report
	switch {
	case *transportName == "chan":
		if *node >= 0 {
			return fmt.Errorf("-node needs -transport tcp; the chan transport always hosts the whole cluster")
		}
		var netw *transport.ChanNetwork
		netw, err = transport.NewChanNetwork(cfg.N)
		if err != nil {
			return err
		}
		defer netw.Close()
		rep, err = runLive(netw)

	case *transportName == "tcp" && *node < 0:
		addrs := transport.LoopbackAddrs(cfg.N)
		if *peers != "" {
			if addrs, err = splitPeers(*peers, cfg.N); err != nil {
				return err
			}
		}
		var netw *transport.TCPNetwork
		netw, err = transport.NewTCPNetwork(ctx, addrs, transport.TCPOptions{})
		if err != nil {
			return err
		}
		defer netw.Close()
		rep, err = runLive(netw)

	case *transportName == "tcp":
		if *peers == "" {
			return fmt.Errorf("-node %d needs -peers with all %d node addresses in node order", *node, cfg.N)
		}
		var addrs []string
		if addrs, err = splitPeers(*peers, cfg.N); err != nil {
			return err
		}
		var ep *transport.TCPEndpoint
		ep, err = transport.DialTCP(ctx, ccba.NodeID(*node), addrs, transport.TCPOptions{})
		if err != nil {
			return err
		}
		defer ep.Close()
		if chaos != nil {
			rep, err = cluster.RunNodeChaos(ctx, cfg, ep, *chaos, opts)
		} else {
			rep, err = cluster.RunNode(ctx, cfg, ep, opts)
		}

	default:
		return fmt.Errorf("unknown transport %q (want chan or tcp)", *transportName)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := cli.WriteTrace(*common.Trace, rec); err != nil {
			return err
		}
	}
	if *obsLinger > 0 {
		// Hold the telemetry endpoint open so an external scraper can read
		// the run's final counters and take a pprof profile.
		time.Sleep(*obsLinger)
	}
	if *common.JSON {
		if err := cli.WriteJSON(out, cli.NewDoc(cfg, rep.Report, *common.Seed, netName, deltaOut)); err != nil {
			return err
		}
		return cli.Verdict(rep.Report)
	}
	fmt.Fprintf(out, "protocol=%s n=%d f=%d crypto=%s transport=%s seed=%d\n",
		cfg.Protocol, cfg.N, cfg.F, cfg.Crypto, *transportName, *common.Seed)
	fmt.Fprintf(out, "  rounds:            %d\n", rep.Rounds)
	cli.WriteTraffic(out, rep.Report)
	return cli.WriteChecks(out, rep.Report)
}

// splitPeers parses the -peers list and checks it covers the cluster.
func splitPeers(peers string, n int) ([]string, error) {
	addrs := strings.Split(peers, ",")
	if len(addrs) != n {
		return nil, fmt.Errorf("-peers lists %d addresses for a cluster of %d", len(addrs), n)
	}
	return addrs, nil
}
