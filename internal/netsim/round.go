package netsim

import (
	"ccba/internal/obs"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// This file is the round loop (DESIGN.md §2, §6). Every round runs the same
// three phases:
//
//  1. Step. Node IDs are split into contiguous shards; each shard steps its
//     live nodes in id order into a private send list (concurrently when
//     Config.StepWorkers > 1). Concatenating the lists in shard order
//     reproduces the send order of a serial loop over all n nodes, so
//     results are byte-identical for every worker count.
//  2. Window (only with the envelope window). The sends become envelopes
//     the adversary observes, corrupts around, erases and injects into;
//     metrics count the envelopes of so-far-honest senders.
//  3. Deliver. Under DeltaOne every surviving send reaches its recipients
//     at the beginning of the next round: a multicast is appended once to
//     the shared list every inbox aliases, a unicast (or a multicast erased
//     for some recipients) becomes a per-recipient extra tagged with its
//     position in that list. Other network models schedule each (envelope,
//     recipient) link into the Δ-scheduling ring instead.
//
// Without the window the per-round state is exactly the traffic: nothing
// here is O(n) except the trace's decide bitmap, paid only when tracing.

// extraEntry is a delivery that applies to a single recipient: a unicast, or
// a multicast erased for some recipients. at is the number of shared
// deliveries preceding it, so merging reproduces exact envelope order.
type extraEntry struct {
	at int
	d  Delivered
}

type extraList []extraEntry

// deliveries is one lockstep round's inbox content: the shared multicast
// list plus the extras of the (few) recipients that have any.
type deliveries struct {
	shared []Delivered
	extras map[types.NodeID]extraList
}

func newDeliveries() deliveries {
	return deliveries{extras: make(map[types.NodeID]extraList)}
}

// add queues d for recipient to; types.Broadcast reaches every node.
// Recipients outside [0, n) receive nothing.
func (q *deliveries) add(to types.NodeID, n int, d Delivered) {
	if to == types.Broadcast {
		q.shared = append(q.shared, d)
	} else if int(to) >= 0 && int(to) < n {
		q.extras[to] = append(q.extras[to], extraEntry{at: len(q.shared), d: d})
	}
}

// reset empties q for reuse, keeping the shared list's backing array.
func (q *deliveries) reset() {
	q.shared = q.shared[:0]
	clear(q.extras)
}

// outSend is one send recorded by a shard, with its encoded size.
type outSend struct {
	from types.NodeID
	Send
	size int
}

// shard is one worker's slice of a round: the nodes [lo, hi) it steps and
// the private buffers it fills. All buffers are reused across rounds.
type shard struct {
	lo, hi int
	out    []outSend
	merge  []Delivered // inbox merge scratch
	live   bool        // some node of the shard is still running
}

// newShards carves [0, n) into min(max(workers, 1), n) contiguous ranges.
func newShards(n, workers int) []shard {
	workers = max(1, min(workers, n))
	size := (n + workers - 1) / workers
	var shards []shard
	for lo := 0; lo < n; lo += size {
		shards = append(shards, shard{lo: lo, hi: min(lo+size, n)})
	}
	return shards
}

// stepRound executes one round; it returns true when every so-far-honest
// node has halted.
func (rt *Runtime) stepRound(round int) (done bool) {
	n := rt.cfg.N
	rt.curRound = round
	if rt.pool != nil {
		for k := range rt.shards {
			rt.pool.Do(k)
		}
		rt.pool.Wait()
	} else {
		for k := range rt.shards {
			rt.stepShard(k)
		}
	}
	done = true
	for k := range rt.shards {
		if rt.shards[k].live {
			done = false
		}
	}

	if rt.status != nil {
		rt.window(round)
		if !done {
			// A node still running may have been corrupted this round.
			done = rt.allHonestHalted()
		}
	} else {
		for k := range rt.shards {
			for _, o := range rt.shards[k].out {
				rt.metrics.CountSend(o.To, n, o.size)
				rt.next.add(o.To, n, Delivered{From: o.from, Msg: o.Msg})
			}
		}
	}

	// Trace: watermark advance. The simulator's round boundary is the
	// deterministic counterpart of the live cluster's completed all-ack
	// barrier, where every node's acked watermark provably reaches
	// round+1 — so both runtimes emit one EvMark per node per round.
	if rt.tr.Enabled() {
		for i := 0; i < n; i++ {
			rt.tr.Mark(round, types.NodeID(i), round+1)
		}
	}

	// Round boundary: this round's deliveries were consumed by the Step
	// calls above; next round reads what was just accumulated.
	rt.cur, rt.next = rt.next, rt.cur
	rt.next.reset()
	return done
}

// stepShard advances every live node of shard k through the current round.
// It is the pool's task body: it writes only shard-k state (and trDecided
// entries of its own nodes), reads only the round's immutable inputs, and
// steps nodes in id order — the invariants the deterministic merge rests
// on. Trace events are emitted from inside the shard; the recorder
// canonicalises order at export, so the stream is byte-identical for every
// worker count.
func (rt *Runtime) stepShard(k int) {
	sh := &rt.shards[k]
	sh.out = sh.out[:0]
	sh.live = false
	round := rt.curRound
	traced := rt.tr.Enabled()
	for i := sh.lo; i < sh.hi; i++ {
		id := types.NodeID(i)
		if rt.corrupt(id) || rt.nodes[i].Halted() {
			continue
		}
		inbox := rt.inbox(id, &sh.merge)
		if traced {
			rt.tr.RoundStart(round, id)
			for di, d := range inbox {
				rt.tr.Deliver(round, id, di, d.From, wire.Size(d.Msg))
			}
		}
		for si, s := range rt.nodes[i].Step(round, inbox) {
			size := wire.Size(s.Msg)
			if traced {
				rt.tr.Send(round, id, si, s.To, size)
			}
			sh.out = append(sh.out, outSend{from: id, Send: s, size: size})
		}
		halted := rt.nodes[i].Halted()
		if traced {
			if !rt.trDecided[i] {
				if bit, ok := rt.nodes[i].Output(); ok {
					rt.tr.Decide(round, id, bit)
					rt.trDecided[i] = true
				}
			}
			if halted {
				rt.tr.Halt(round, id)
			}
		}
		if !halted {
			sh.live = true
		}
	}
}

// inbox returns node id's deliveries for the current round. Under DeltaOne
// a node with no extras reads the shared list itself; otherwise its extras
// are merged into *scratch at their recorded positions. Inbox slices are
// only valid during the round they were built for, per the Node contract.
func (rt *Runtime) inbox(id types.NodeID, scratch *[]Delivered) []Delivered {
	if rt.ring != nil {
		return rt.ring[rt.curRound%len(rt.ring)][id]
	}
	ex, ok := rt.cur.extras[id]
	if !ok {
		return rt.cur.shared
	}
	buf := (*scratch)[:0]
	si := 0
	for _, en := range ex {
		buf = append(buf, rt.cur.shared[si:en.at]...)
		si = en.at
		buf = append(buf, en.d)
	}
	buf = append(buf, rt.cur.shared[si:]...)
	*scratch = buf
	return buf
}

// allHonestHalted reports whether every so-far-honest node has halted.
func (rt *Runtime) allHonestHalted() bool {
	for i := range rt.nodes {
		if !rt.corrupt(types.NodeID(i)) && !rt.nodes[i].Halted() {
			return false
		}
	}
	return true
}

// window is the adversary's envelope layer: wrap the round's sends into
// envelopes, run the adversary's round hook (observe, corrupt, remove —
// power permitting — inject), account the honest sends, and deliver what
// survives.
func (rt *Runtime) window(round int) {
	n := rt.cfg.N
	// Envelopes live in a slab sized to this round's sends; individual heap
	// envelopes exist only for adversarial injections.
	slab := rt.envSlab[:0]
	for k := range rt.shards {
		for _, o := range rt.shards[k].out {
			slab = append(slab, Envelope{From: o.from, To: o.To, Msg: o.Msg, size: o.size, honestSend: true})
		}
	}
	rt.envSlab = slab
	envs := rt.envs[:0]
	for i := range slab {
		envs = append(envs, &slab[i])
	}

	ctx := rt.newCtx(round, envs)
	rt.adv.Round(ctx)
	envs = ctx.envelopes()
	rt.envs = envs

	// Definitions 6 and 7 count messages sent by nodes that were
	// so-far-honest at send time. A message erased by after-the-fact
	// removal was still *sent* by an honest node and is counted.
	for _, e := range envs {
		if e.honestSend {
			rt.metrics.CountSend(e.To, n, e.size)
		}
	}

	if rt.ring != nil {
		rt.scheduleDeliveries(round, envs)
		return
	}
	for _, e := range envs {
		if e.removed {
			continue
		}
		d := Delivered{From: e.From, Msg: e.Msg}
		if e.To == types.Broadcast && len(e.removedFor) > 0 {
			for j := 0; j < n; j++ {
				if !e.RemovedFor(types.NodeID(j)) {
					rt.next.add(types.NodeID(j), n, d)
				}
			}
		} else if !e.RemovedFor(e.To) {
			rt.next.add(e.To, n, d)
		}
	}
}

// scheduleDeliveries is the Δ-scheduling layer: each surviving (envelope,
// recipient) link is put to the network model, power-checked, and appended
// to the ring slot of its assigned round. Slots' per-node lists are reused
// across laps, so the layer is allocation-free in steady state.
func (rt *Runtime) scheduleDeliveries(round int, envs []*Envelope) {
	n := rt.cfg.N
	// Reclaim this round's slot: its deliveries were consumed by the Step
	// calls at the top of this round, and its ring position is about to be
	// reused for round+∆. The next round's inbox is whatever accumulates
	// for it: sends from this round scheduled at +1 together with earlier
	// sends the model held back, in chronological send order (ties broken
	// by envelope order).
	cur := rt.ring[round%len(rt.ring)]
	for i := range cur {
		cur[i] = cur[i][:0]
	}
	if rt.faultSeq != nil {
		clear(rt.faultSeq)
	}
	for _, e := range envs {
		if e.removed {
			continue
		}
		d := Delivered{From: e.From, Msg: e.Msg}
		if e.To == types.Broadcast {
			for j := 0; j < n; j++ {
				if !e.RemovedFor(types.NodeID(j)) {
					rt.scheduleLink(round, e, types.NodeID(j), d)
				}
			}
		} else if int(e.To) >= 0 && int(e.To) < n {
			if !e.RemovedFor(e.To) {
				rt.scheduleLink(round, e, e.To, d)
			}
		}
	}
}

// scheduleLink schedules one (envelope, recipient) link, enforcing the
// delivery-bound and power contract documented on NetModel.
func (rt *Runtime) scheduleLink(round int, e *Envelope, to types.NodeID, d Delivered) {
	delta := rt.net.Delta()
	delay := 1
	if e.From != to {
		delay = rt.net.Schedule(Link{
			Round:       round,
			From:        e.From,
			To:          to,
			HonestSend:  e.honestSend,
			FromCorrupt: rt.corrupt(e.From),
		})
		if delay == Drop {
			if rt.mayDrop(e) {
				if rt.tr.Enabled() {
					rt.traceFault(round, e.From, to)
				}
				return
			}
			// An illegal drop request degrades to the strongest legal move:
			// holding the honest message to the bound.
			delay = delta
		}
		delay = max(1, min(delay, delta))
	}
	slot := rt.ring[(round+delay)%(delta+1)]
	slot[to] = append(slot[to], d)
}

// traceFault emits one accepted link drop. The per-(round, sender)
// sequence counter reproduces the live chaos endpoint's numbering: both
// runtimes inject faults in (send seq, recipient) order, so the streams
// align event for event at Δ=1.
func (rt *Runtime) traceFault(round int, from, to types.NodeID) {
	seq := rt.faultSeq[from]
	rt.faultSeq[from] = seq + 1
	kind := obs.FaultDrop
	if rt.faultKind != nil {
		kind = rt.faultKind.DropKind(round, from)
	}
	rt.tr.Fault(round, from, to, int(seq), kind)
}

// honestFaultyCount returns the number of omission-faulty senders that are
// not (yet) corrupt — the slice of the corruption budget the network model
// holds. Fault sets are small (≤ F) and corruption is rare, so recounting
// is cheaper than bookkeeping.
func (rt *Runtime) honestFaultyCount() int {
	n := 0
	for id, faulty := range rt.faulty {
		if faulty && !rt.corrupt(types.NodeID(id)) {
			n++
		}
	}
	return n
}

// mayDrop reports whether the network model is permitted to omit envelope
// e's message: omission-faulty senders, adversary-injected traffic, and —
// under strongly adaptive power only — messages whose sender was corrupted
// after speaking (the after-the-fact-removal boundary of Theorem 1).
func (rt *Runtime) mayDrop(e *Envelope) bool {
	if rt.faulty != nil && int(e.From) < len(rt.faulty) && rt.faulty[e.From] {
		return true
	}
	if !e.honestSend {
		return true
	}
	return rt.corrupt(e.From) && rt.adv.Power() == PowerStronglyAdaptive
}
