package attest

import (
	"bytes"
	"sync"
	"sync/atomic"

	"ccba/internal/types"
)

// Interner is a per-run intern table for attestation-set state
// (DESIGN.md §6). Under the passive lockstep schedule every forever-honest
// node receives the identical multicast traffic, so every node's vote and
// commit sets walk the identical sequence of states; storing that sequence
// once and handing each node a refcounted handle drops the protocol-state
// term from O(n·committee) to O(committee) per iteration. A node that
// would mutate a state other nodes still share never mutates in place:
// each Add is a transition to an immutable successor state, recorded in
// the table so every follower performing the same transition lands on the
// same handle (copy-on-divergence). Divergent traffic — adversarial
// unicasts, per-recipient removals — simply forks the transition graph:
// each divergent node pays for its own states, degrading gracefully to
// today's per-node copies while identical nodes keep sharing.
//
// Interned states are immutable once published, so certificates cut from
// them alias the shared backing array instead of copying per node.
//
// The table is safe for concurrent use: sharded node stepping advances
// handles from several worker goroutines at once.
// State identity under concurrency is best-effort (two workers racing the
// same first-ever transition may briefly both take the write path), but
// state *content* is a pure function of the add sequence, so execution
// results are bit-identical for every worker count.
type Interner struct {
	mu   sync.RWMutex
	root *sharedAtts

	// Stats counters; hits is atomic because it is bumped on the
	// read-locked fast path.
	states int
	clones int
	forks  int
	hits   atomic.Int64
}

// sharedAtts is one immutable interned state: an attestation sequence plus
// the transitions out of it. refs counts the Sets currently holding this
// state as their handle; it exists for telemetry and test assertions — an
// unreferenced state stays in the table, because its memory is bounded by
// the distinct add-sequences of the run (O(committee²) per iteration under
// honest-identical traffic) and a later follower may still want the
// recorded transition.
type sharedAtts struct {
	atts []Attestation
	refs atomic.Int64
	// succ holds this state's recorded transitions, keyed by the added
	// node id; the (rare) case of two distinct proofs for one id — which a
	// shared table spanning several tags can produce — is a short list
	// disambiguated by proof bytes. Guarded by Interner.mu.
	succ map[types.NodeID][]*sharedAtts
	// succs counts recorded transitions; the transition that takes it from
	// one to two is a divergence fork.
	succs int
}

// NewInterner constructs an empty per-run intern table.
func NewInterner() *Interner {
	return &Interner{root: &sharedAtts{}}
}

// InternStats is the table's telemetry, for budget tests, the
// copy-on-divergence assertions, and the run reports (scenario, cmd/ba,
// cmd/bench). The counters are deterministic per (config, seed) — the
// double-checked insert in advance makes them schedule-independent — so
// reports that embed them stay byte-diffable across worker counts.
type InternStats struct {
	// States is the number of interned states created (the empty root is
	// not counted).
	States int `json:"states"`
	// Clones counts copy-on-divergence clones; every state is cloned from
	// its predecessor exactly once, so this always equals States.
	Clones int `json:"clones"`
	// Hits counts Adds resolved to an already-recorded successor — the
	// sharing the table exists for.
	Hits int64 `json:"hits"`
	// Forks counts states that acquired a second distinct successor: the
	// moments node histories actually diverged.
	Forks int `json:"forks"`
}

// Stats returns a snapshot of the table's counters.
func (in *Interner) Stats() InternStats {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return InternStats{States: in.states, Clones: in.clones, Hits: in.hits.Load(), Forks: in.forks}
}

// advance resolves the transition state --Add(id, proof)--> successor,
// recording and cloning on first use.
func (in *Interner) advance(h *sharedAtts, id types.NodeID, proof []byte) *sharedAtts {
	in.mu.RLock()
	next := findSucc(h.succ[id], proof)
	in.mu.RUnlock()
	if next != nil {
		in.hits.Add(1)
		return next
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	// Re-check: another worker may have recorded the transition between
	// the two lock acquisitions.
	if next := findSucc(h.succ[id], proof); next != nil {
		in.hits.Add(1)
		return next
	}
	// Copy-on-divergence: the successor is a fresh immutable state; h is
	// never touched, so every Set still holding h is unaffected.
	atts := make([]Attestation, len(h.atts)+1)
	copy(atts, h.atts)
	atts[len(h.atts)] = Attestation{ID: id, Proof: proof}
	next = &sharedAtts{atts: atts}
	if h.succ == nil {
		h.succ = make(map[types.NodeID][]*sharedAtts, 1)
	}
	h.succ[id] = append(h.succ[id], next)
	h.succs++
	if h.succs == 2 {
		in.forks++
	}
	in.states++
	in.clones++
	return next
}

// findSucc scans a (nearly always length-one) successor list for the state
// whose last attestation carries exactly proof.
func findSucc(list []*sharedAtts, proof []byte) *sharedAtts {
	for _, st := range list {
		if last := st.atts[len(st.atts)-1]; bytes.Equal(last.Proof, proof) {
			return st
		}
	}
	return nil
}

// Bind switches an empty Set to interned mode: its state becomes a
// refcounted handle into in's transition graph, starting at the shared
// empty root. Binding a non-empty or already-bound set panics — interning
// is a construction-time decision, not a migration.
func (s *Set) Bind(in *Interner) {
	if in == nil {
		return
	}
	if s.in != nil || len(s.atts) != 0 {
		panic("attest: Bind on a non-empty or already-interned Set")
	}
	s.in = in
	s.h = in.root
	in.root.refs.Add(1)
}

// Interned reports whether the set holds interned shared state.
func (s *Set) Interned() bool { return s.in != nil }

// SharesStorageWith reports whether two interned sets currently hold the
// same shared state handle — the property the copy-on-divergence tests
// assert forks exactly at the first divergent mutation.
func (s *Set) SharesStorageWith(o *Set) bool {
	return s.h != nil && s.h == o.h
}

// HandleRefs returns the number of Sets currently sharing this set's
// handle (0 for owned-mode sets). Test instrumentation.
func (s *Set) HandleRefs() int {
	if s.h == nil {
		return 0
	}
	return int(s.h.refs.Load())
}

// addInterned is Add in interned mode: a transition to the successor
// state, shared with every other set that performed the same sequence.
func (s *Set) addInterned(id types.NodeID, proof []byte) bool {
	for i := range s.h.atts {
		if s.h.atts[i].ID == id {
			return false
		}
	}
	next := s.in.advance(s.h, id, proof)
	next.refs.Add(1)
	s.h.refs.Add(-1)
	s.h = next
	return true
}

// resetInterned releases the current handle and rebinds the empty root,
// recycling the set for the next iteration window.
func (s *Set) resetInterned() {
	if s.h == s.in.root {
		return
	}
	s.h.refs.Add(-1)
	s.in.root.refs.Add(1)
	s.h = s.in.root
}
