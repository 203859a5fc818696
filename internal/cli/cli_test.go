package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"testing"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/transport"
)

func parse(t *testing.T, args ...string) ccba.Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fl := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := fl.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSimAndClusterDocsIdentical pins the contract the shared document
// exists for: the simulator's and a chan cluster's -json documents for the
// same config and seed marshal byte-identical.
func TestSimAndClusterDocsIdentical(t *testing.T) {
	cfg := parse(t, "-n", "32", "-f", "9", "-lambda", "10", "-seed", "5")
	sim, err := ccba.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	netw, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	defer netw.Close()
	live, err := cluster.Run(context.Background(), cfg, netw, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(NewDoc(cfg, sim, 5, "delta-one", 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(NewDoc(cfg, live.Report, 5, "delta-one", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("documents differ:\nsim:     %s\ncluster: %s", a, b)
	}
	if !sim.Ok() {
		t.Fatalf("run violated a property: %s", a)
	}
}

// TestOverrideRule checks that explicit flags beat a scenario's fields and
// that, with no scenario, every flag (defaults included) applies.
func TestOverrideRule(t *testing.T) {
	sc, ok := ccba.LookupScenario("quadratic-n49")
	if !ok {
		t.Fatal("scenario quadratic-n49 not registered")
	}
	cfg := parse(t, "-scenario", "quadratic-n49", "-f", "10", "-sender-input", "1")
	if cfg.Protocol != sc.Config.Protocol || cfg.N != sc.Config.N || cfg.F != 10 || cfg.SenderInput != ccba.One {
		t.Fatalf("scenario override: got %+v", cfg)
	}
	cfg = parse(t, "-unanimous", "1", "-seed", "258")
	if cfg.Protocol != ccba.Core || cfg.N != 200 || cfg.F != 60 || cfg.Lambda != 40 || cfg.Crypto != ccba.Ideal ||
		cfg.InputPattern != "unanimous-1" || cfg.Seed[0] != 2 || cfg.Seed[1] != 1 {
		t.Fatalf("flag defaults: got %+v", cfg)
	}
}
