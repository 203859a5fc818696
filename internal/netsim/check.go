package netsim

import (
	"errors"
	"fmt"

	"ccba/internal/types"
)

// Violation errors returned by the security-property checkers. Callers
// distinguish the property that failed with errors.Is.
var (
	ErrConsistency = errors.New("consistency violation")
	ErrValidity    = errors.New("validity violation")
	ErrTermination = errors.New("termination violation")
)

// CheckConsistency verifies the agreement property of Appendix A.2: every
// forever-honest node that decided output the same bit.
func CheckConsistency(res *Result) (err error) {
	decided := types.NoBit
	var first types.NodeID
	res.EachForeverHonest(func(id types.NodeID) bool {
		if !res.Decided[id] {
			return true
		}
		out := res.Outputs[id]
		if decided == types.NoBit {
			decided, first = out, id
			return true
		}
		if out != decided {
			err = fmt.Errorf("%w: node %d output %s but node %d output %s",
				ErrConsistency, first, decided, id, out)
			return false
		}
		return true
	})
	return err
}

// CheckAgreementValidity verifies the agreement-version validity property:
// if every forever-honest node received the same input bit, every
// forever-honest node output that bit. inputs holds all n input bits.
func CheckAgreementValidity(res *Result, inputs []types.Bit) (err error) {
	common, unanimous, any := types.NoBit, true, false
	res.EachForeverHonest(func(id types.NodeID) bool {
		if !any {
			common, any = inputs[id], true
			return true
		}
		if inputs[id] != common {
			unanimous = false
			return false
		}
		return true
	})
	if !any || !unanimous {
		return nil // no honest nodes, or inputs disagree: validity is vacuous
	}
	res.EachForeverHonest(func(id types.NodeID) bool {
		if !res.Decided[id] {
			err = fmt.Errorf("%w: node %d never decided despite unanimous input %s",
				ErrValidity, id, common)
			return false
		}
		if res.Outputs[id] != common {
			err = fmt.Errorf("%w: unanimous input %s but node %d output %s",
				ErrValidity, common, id, res.Outputs[id])
			return false
		}
		return true
	})
	return err
}

// CheckBroadcastValidity verifies the broadcast-version validity property:
// if the designated sender is forever-honest, every forever-honest node
// output the sender's input.
func CheckBroadcastValidity(res *Result, sender types.NodeID, input types.Bit) (err error) {
	if res.Corrupt[sender] {
		return nil // corrupt sender: validity is vacuous
	}
	res.EachForeverHonest(func(id types.NodeID) bool {
		if !res.Decided[id] {
			err = fmt.Errorf("%w: node %d never decided despite honest sender input %s",
				ErrValidity, id, input)
			return false
		}
		if res.Outputs[id] != input {
			err = fmt.Errorf("%w: honest sender input %s but node %d output %s",
				ErrValidity, input, id, res.Outputs[id])
			return false
		}
		return true
	})
	return err
}

// CheckTermination verifies T_end-termination: every forever-honest node
// decided (the Runtime already bounds rounds by MaxRounds).
func CheckTermination(res *Result) (err error) {
	res.EachForeverHonest(func(id types.NodeID) bool {
		if !res.Decided[id] {
			err = fmt.Errorf("%w: node %d undecided after %d rounds",
				ErrTermination, id, res.Rounds)
			return false
		}
		return true
	})
	return err
}
