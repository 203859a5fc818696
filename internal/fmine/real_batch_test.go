package fmine

import (
	"bytes"
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/vrf"
	"ccba/internal/types"
)

// The batch mine/verify entry points must be observationally equivalent to
// the scalar path, and every verify answer — scalar or batch, cache hit,
// known forgery or evicted entry — must equal an uncached vrf.Verify of the
// same claim: identical proofs, identical success flags, identical answers
// for genuine tickets, wrong-owner claims, and forged bytes, with the cache
// staying bounded by the iteration window.

// realProb is the difficulty every suite in this file mines under.
func realProb(Tag) float64 { return 0.5 }

func newRealSuite(t *testing.T, n int) (*Real, *pki.Public) {
	t.Helper()
	pub, secrets := pki.Setup(n, [32]byte{42})
	return NewReal(pub, secrets, realProb), pub
}

// uncachedVerify is the verify answer with no memo at all: one full VRF
// verification of the claim against the owner's public key.
func uncachedVerify(pub *pki.Public, tag Tag, id types.NodeID, proof []byte) bool {
	pk := pub.VRFKey(id)
	if pk == nil {
		return false
	}
	out, ok := vrf.Verify(pk, tag.Encode(), proof)
	return ok && out.Below(realProb(tag))
}

func TestRealMineBatchMatchesScalar(t *testing.T) {
	const n = 24
	r, _ := newRealSuite(t, n)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	for iter := uint32(1); iter <= 3; iter++ {
		tag := Tag{Domain: "batch-test", Type: 1, Iter: iter, Bit: types.One}
		proofs, oks := r.MineBatch(tag, ids)
		for i, id := range ids {
			p, ok := r.Miner(id).Mine(tag)
			if ok != oks[i] || !bytes.Equal(p, proofs[i]) {
				t.Fatalf("iter %d id %d: batch (%x, %v), scalar (%x, %v)", iter, id, proofs[i], oks[i], p, ok)
			}
		}
	}
}

func TestRealVerifyBatchMatchesScalar(t *testing.T) {
	const n = 24
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	tag := Tag{Domain: "batch-test", Type: 1, Iter: 1, Bit: types.Zero}
	miner, pub := newRealSuite(t, n)
	proofs, oks := miner.MineBatch(tag, ids)

	// Build a hostile claim set: genuine tickets, failed attempts' nil
	// proofs, wrong-owner proofs, and forged bytes.
	claimIDs := append([]types.NodeID{}, ids...)
	claimProofs := append([][]byte{}, proofs...)
	var firstWin int = -1
	for i, ok := range oks {
		if ok {
			firstWin = i
			break
		}
	}
	if firstWin < 0 {
		t.Fatal("no successful tickets at p=0.5; corpus broken")
	}
	// Wrong owner: node (firstWin+1) claims firstWin's ticket.
	claimIDs = append(claimIDs, types.NodeID((firstWin+1)%n))
	claimProofs = append(claimProofs, proofs[firstWin])
	// Forgery: flipped byte of a genuine ticket, claimed by its owner.
	forged := bytes.Clone(proofs[firstWin])
	forged[0] ^= 1
	claimIDs = append(claimIDs, types.NodeID(firstWin))
	claimProofs = append(claimProofs, forged)

	// Batch first on a fresh suite (it populates the cache), then scalar
	// on another fresh suite (its own population order), then the batch
	// again: every answer, hit or miss, must equal the uncached oracle.
	batched, _ := newRealSuite(t, n)
	scalar, _ := newRealSuite(t, n)
	got := batched.VerifyBatch(tag, claimIDs, claimProofs)
	again := batched.VerifyBatch(tag, claimIDs, claimProofs)
	v := scalar.Verifier()
	for i := range claimIDs {
		want := uncachedVerify(pub, tag, claimIDs[i], claimProofs[i])
		if got[i] != want || again[i] != want {
			t.Fatalf("claim %d (id %d): batch %v, cached batch %v, uncached %v", i, claimIDs[i], got[i], again[i], want)
		}
		if s := v.Verify(tag, claimIDs[i], claimProofs[i]); s != want {
			t.Fatalf("claim %d (id %d): scalar %v, uncached %v", i, claimIDs[i], s, want)
		}
	}
}

// TestRealLeanCacheBounded pins the cache's eviction policy: entries older
// than the iteration window are dropped, iteration-0 entries survive the
// whole run, and every answer — cached or evicted — equals an uncached
// verification (re-verification, not data loss).
func TestRealLeanCacheBounded(t *testing.T) {
	const n = 16
	lean, pub := newRealSuite(t, n)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}

	termTag := Tag{Domain: "lean-bound", Type: 9, Iter: 0, Bit: types.NoBit}
	termProofs, termOks := lean.MineBatch(termTag, ids)
	lean.VerifyBatch(termTag, ids, termProofs)
	termCached := 0
	for _, ok := range termOks {
		if ok {
			termCached++
		}
	}

	const iters = 20
	perIter := make(map[uint32][][]byte)
	for iter := uint32(1); iter <= iters; iter++ {
		tag := Tag{Domain: "lean-bound", Type: 1, Iter: iter, Bit: types.One}
		proofs, _ := lean.MineBatch(tag, ids)
		lean.VerifyBatch(tag, ids, proofs)
		perIter[iter] = proofs
	}

	// Bounded: at most the window's worth of per-iteration entries plus
	// the immortal iteration-0 ones.
	if got, max := lean.CacheLen(), termCached+cacheWindow*n; got > max {
		t.Fatalf("lean cache has %d entries after %d iterations, want ≤ %d", got, iters, max)
	}

	v := lean.Verifier()
	// Iteration-0 tickets still answer from cache (and correctly).
	for i, ok := range termOks {
		if got := v.Verify(termTag, ids[i], termProofs[i]); got != ok {
			t.Fatalf("iter-0 id %d: verify %v, want %v", i, got, ok)
		}
	}
	// Evicted early-iteration tickets and still-cached late ones answer
	// exactly as an uncached verification does — for the owner and for a
	// wrong-owner claim alike.
	for _, iter := range []uint32{1, iters} {
		tag := Tag{Domain: "lean-bound", Type: 1, Iter: iter, Bit: types.One}
		for i, proof := range perIter[iter] {
			if proof == nil {
				continue
			}
			for _, id := range []types.NodeID{ids[i], ids[(i+1)%n]} {
				if got, want := v.Verify(tag, id, proof), uncachedVerify(pub, tag, id, proof); got != want {
					t.Fatalf("iter %d: ticket of id %d claimed by %d: verify %v, uncached %v", iter, i, id, got, want)
				}
			}
		}
	}
}
