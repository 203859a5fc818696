package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"ccba"
	"ccba/internal/acs"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// counters are the deterministic observables of one instance. Two
// executions of the same seed, timed or traced, must agree on every field.
type counters struct {
	// rounds is the lockstep round count, or on the event runtime the
	// highest ABA decide round.
	rounds int
	// deliveries is the event runtime's delivery count (0 elsewhere).
	deliveries int
	metrics    netsim.Metrics
	// outputs digests every node's output and decided flag.
	outputs uint64
	// setSize is the agreed ACS set size (0 elsewhere).
	setSize int
}

// outcome is one checked instance.
type outcome struct {
	c counters
	// violation is the first failed property: consistency, validity
	// (including the ACS set check) or termination.
	violation error
	// err means the instance could not run at all.
	err error
}

func (o outcome) failed() bool { return o.err != nil || o.violation != nil }

func (o outcome) problem() error {
	if o.err != nil {
		return o.err
	}
	return o.violation
}

func digestOutputs(res *netsim.Result) uint64 {
	h := fnv.New64a()
	for i := range res.Outputs {
		d := byte(0)
		if res.Decided[i] {
			d = 1
		}
		h.Write([]byte{byte(res.Outputs[i]), d})
	}
	return h.Sum64()
}

// checkReport turns a report from the public entry points into an outcome.
func checkReport(rep *ccba.Report) outcome {
	o := outcome{
		violation: errors.Join(rep.Consistency, rep.Validity, rep.Termination),
		c: counters{
			rounds:  rep.Rounds,
			metrics: rep.Metrics,
			outputs: digestOutputs(rep.Result),
		},
	}
	if rep.Async != nil {
		o.c.rounds = rep.Async.DecideRound
		o.c.deliveries = rep.Rounds
		o.c.setSize = rep.Async.SetSize
	}
	return o
}

// checkACS is the ACS set check the scenario layer applies to ACS runs:
// every forever-honest node fixed the same slot set, in slot order, of size
// at least n−f, holding each honest owner's real payload. The traced run
// assembles ACS nodes itself, so it repeats the check here.
func checkACS(n, f int, inputs []types.Bit, res *netsim.Result, nodes []*acs.Node) (setSize int, err error) {
	var ref []types.NodeID
	for _, id := range res.ForeverHonest() {
		set, ok := nodes[id].OutputSet()
		if !ok {
			return 0, fmt.Errorf("acs: honest node %d fixed no output set", id)
		}
		if len(set) < n-f {
			return 0, fmt.Errorf("acs: node %d output set has %d slots, below n-f=%d", id, len(set), n-f)
		}
		for k := 1; k < len(set); k++ {
			if set[k-1] >= set[k] {
				return 0, fmt.Errorf("acs: node %d output set is not in slot order", id)
			}
		}
		if ref == nil {
			ref = set
		} else if !slices.Equal(ref, set) {
			return 0, fmt.Errorf("acs: node %d set %v differs from %v", id, set, ref)
		}
		for _, j := range set {
			if !res.Corrupt[j] && !bytes.Equal(nodes[id].Payload(j), acsPayload(inputs[j])) {
				return 0, fmt.Errorf("acs: node %d holds payload %x for honest slot %d", id, nodes[id].Payload(j), j)
			}
		}
	}
	if ref == nil {
		return 0, fmt.Errorf("acs: no forever-honest node to check")
	}
	return len(ref), nil
}

// acsPayload is the payload an ACS node contributes for its input bit, as
// the scenario layer builds it.
func acsPayload(b types.Bit) []byte { return []byte{byte(b)} }

// sameCounters reports the first field on which two executions of one seed
// differ.
func sameCounters(a, b counters) error {
	if a == b {
		return nil
	}
	return fmt.Errorf("counters differ: %+v vs %+v", a, b)
}
