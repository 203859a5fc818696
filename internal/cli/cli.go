package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ccba"
)

// Field binds a flag to the config field it sets. Under the override rule
// (Flags.Config) it applies when no scenario is named or when the flag was
// passed explicitly.
type Field struct {
	Flag string
	Set  func(*ccba.Config)
}

// Flags are the flags both binaries declare.
type Flags struct {
	fs        *flag.FlagSet
	fields    []Field
	Seed      *int64
	Unanimous *int
	Scenario  *string
	List      *bool
	JSON      *bool
	Trace     *string
}

// Register declares the common flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	var (
		protocol    = fs.String("protocol", "core", "protocol: core, core-broadcast, quadratic, phaseking, phaseking-sampled, chenmicali, dolevstrong, committee, brb, aba, acs (the async brb/aba/acs run in the simulator only)")
		n           = fs.Int("n", 200, "number of nodes")
		f           = fs.Int("f", 60, "corruption budget")
		lambda      = fs.Int("lambda", 40, "expected committee size")
		epochs      = fs.Int("epochs", 20, "epochs (phase-king protocols)")
		crypto      = fs.String("crypto", "ideal", "crypto mode: ideal (F_mine hybrid) or real (Ed25519 VRF)")
		erasure     = fs.Bool("erasure", false, "memory-erasure model (chenmicali)")
		senderInput = fs.Int("sender-input", 0, "sender input bit (broadcast protocols)")
	)
	return &Flags{
		fs: fs,
		fields: []Field{
			{"protocol", func(c *ccba.Config) { c.Protocol = ccba.Protocol(*protocol) }},
			{"n", func(c *ccba.Config) { c.N = *n }},
			{"f", func(c *ccba.Config) { c.F = *f }},
			{"lambda", func(c *ccba.Config) { c.Lambda = *lambda }},
			{"epochs", func(c *ccba.Config) { c.Epochs = *epochs }},
			{"crypto", func(c *ccba.Config) { c.Crypto = ccba.CryptoMode(*crypto) }},
			{"erasure", func(c *ccba.Config) { c.Erasure = *erasure }},
			{"sender-input", func(c *ccba.Config) {
				c.SenderInput = ccba.Zero
				if *senderInput == 1 {
					c.SenderInput = ccba.One
				}
			}},
		},
		Seed:      fs.Int64("seed", 1, "execution seed"),
		Unanimous: fs.Int("unanimous", -1, "if 0 or 1, give every node that input bit (agreement protocols)"),
		Scenario:  fs.String("scenario", "", "run a registered scenario by name; other flags override its fields"),
		List:      fs.Bool("scenarios", false, "list the registered scenarios and exit"),
		JSON:      fs.Bool("json", false, "emit the outcome as JSON (one document for the simulator and the live cluster)"),
		Trace:     fs.String("trace", "", "write the canonical round-event trace (JSONL, DESIGN.md §10) to this file; single runs only"),
	}
}

// Set reports whether the flag was passed explicitly.
func (fl *Flags) Set(name string) bool {
	set := false
	fl.fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// Config resolves the run configuration from the common flags plus the
// binary's own fields. With -scenario it starts from the registered
// scenario and an explicitly passed flag beats the scenario's field; with
// no scenario every flag applies. The seed and -unanimous always apply.
// The returned scenario is nil when none was named.
func (fl *Flags) Config(fields ...Field) (ccba.Config, *ccba.Scenario, error) {
	var cfg ccba.Config
	var sc *ccba.Scenario
	if *fl.Scenario != "" {
		s, ok := ccba.LookupScenario(*fl.Scenario)
		if !ok {
			return cfg, nil, fmt.Errorf("unknown scenario %q (registered: %v)", *fl.Scenario, ccba.ScenarioNames())
		}
		sc, cfg = &s, s.Config
	}
	for _, f := range append(fl.fields, fields...) {
		if sc == nil || fl.Set(f.Flag) {
			f.Set(&cfg)
		}
	}
	cfg.Seed = [32]byte{byte(*fl.Seed), byte(*fl.Seed >> 8), byte(*fl.Seed >> 16)}
	switch *fl.Unanimous {
	case 0:
		cfg.Inputs, cfg.InputPattern = nil, "unanimous-0"
	case 1:
		cfg.Inputs, cfg.InputPattern = nil, "unanimous-1"
	}
	return cfg, sc, nil
}

// ListScenarios prints every registered scenario with its description.
func ListScenarios(out io.Writer) error {
	for _, name := range ccba.ScenarioNames() {
		sc, _ := ccba.LookupScenario(name)
		if _, err := fmt.Fprintf(out, "%-24s %s\n", name, sc.Description); err != nil {
			return err
		}
	}
	return nil
}

// Doc is the -json document of a single execution. It carries only the
// protocol-visible facts, so the simulator's and the live cluster's
// documents for the same config and seed are byte-identical.
type Doc struct {
	Protocol   string            `json:"protocol"`
	N          int               `json:"n"`
	F          int               `json:"f"`
	Crypto     string            `json:"crypto"`
	Net        string            `json:"net"`
	Delta      int               `json:"delta"`
	Seed       int64             `json:"seed"`
	Rounds     int               `json:"rounds"`
	Corrupted  int               `json:"corrupted"`
	Metrics    ccba.Metrics      `json:"metrics"`
	Async      *ccba.AsyncInfo   `json:"async,omitempty"`
	Ok         bool              `json:"ok"`
	Violations map[string]string `json:"violations"`
}

// NewDoc builds the document of one execution of cfg. net and delta name
// the message-scheduling model the run reports.
func NewDoc(cfg ccba.Config, rep *ccba.Report, seed int64, net string, delta int) Doc {
	doc := Doc{
		Protocol:   string(cfg.Protocol),
		N:          cfg.N,
		F:          cfg.F,
		Crypto:     string(cfg.Crypto),
		Net:        net,
		Delta:      delta,
		Seed:       seed,
		Rounds:     rep.Rounds,
		Corrupted:  rep.NumCorrupt(),
		Metrics:    rep.Result.Metrics,
		Async:      rep.Async,
		Ok:         rep.Ok(),
		Violations: map[string]string{},
	}
	for _, c := range checks(rep) {
		if c.err != nil {
			doc.Violations[c.name] = c.err.Error()
		}
	}
	return doc
}

// WriteJSON writes v as indented JSON with a trailing newline.
func WriteJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// Verdict fails the command unless all three properties held.
func Verdict(rep *ccba.Report) error {
	if !rep.Ok() {
		return errors.New("security properties violated")
	}
	return nil
}

// WriteTraffic prints the communication lines of the text summary: the
// honest multicast and classical-message counts (Definitions 6–7) and the
// forever-honest nodes' decided outputs.
func WriteTraffic(out io.Writer, rep *ccba.Report) {
	m := rep.Result.Metrics
	outputs := map[ccba.Bit]int{}
	for _, id := range rep.ForeverHonest() {
		if rep.Decided[id] {
			outputs[rep.Outputs[id]]++
		}
	}
	fmt.Fprintf(out, "  multicasts:        %d (%d bytes)\n", m.HonestMulticasts, m.HonestMulticastBytes)
	fmt.Fprintf(out, "  classical msgs:    %d (%d bytes)\n", m.HonestMessages, m.HonestMessageBytes)
	fmt.Fprintf(out, "  honest outputs:    %v\n", outputs)
}

// WriteChecks prints the three property-checker lines and returns the
// run's Verdict.
func WriteChecks(out io.Writer, rep *ccba.Report) error {
	for _, c := range checks(rep) {
		s := "ok"
		if c.err != nil {
			s = "VIOLATED: " + c.err.Error()
		}
		fmt.Fprintf(out, "  %-18s %s\n", c.name+":", s)
	}
	return Verdict(rep)
}

type check struct {
	name string
	err  error
}

func checks(rep *ccba.Report) []check {
	return []check{{"consistency", rep.Consistency}, {"validity", rep.Validity}, {"termination", rep.Termination}}
}

// WriteTrace exports a recorder's canonical JSONL to path.
func WriteTrace(path string, rec *ccba.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
