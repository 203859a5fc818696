package fmine

import (
	"bytes"
	"math"
	"testing"

	"ccba/internal/crypto/pki"
	"ccba/internal/crypto/prf"
	"ccba/internal/types"
	"ccba/internal/wire"
)

func constProb(p float64) ProbFunc { return func(Tag) float64 { return p } }

func tag(typ uint8, iter uint32, bit types.Bit) Tag {
	return Tag{Domain: "test", Type: typ, Iter: iter, Bit: bit}
}

func newIdeal(p float64) *Ideal {
	var seed [32]byte
	seed[0] = 42
	return NewIdeal(seed, constProb(p))
}

func newReal(n int, p float64) *Real {
	var seed [32]byte
	seed[0] = 42
	pub, secrets := pki.Setup(n, seed)
	return NewReal(pub, secrets, constProb(p))
}

func suites(t *testing.T, n int, p float64) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"ideal": newIdeal(p),
		"real":  newReal(n, p),
	}
}

func TestMineDeterministic(t *testing.T) {
	for name, s := range suites(t, 4, 0.5) {
		t.Run(name, func(t *testing.T) {
			m := s.Miner(1)
			p1, ok1 := m.Mine(tag(1, 3, types.Zero))
			p2, ok2 := m.Mine(tag(1, 3, types.Zero))
			if ok1 != ok2 || string(p1) != string(p2) {
				t.Fatal("repeated mining attempt returned different results (Figure 1 memoisation)")
			}
		})
	}
}

func TestMineVerifyRoundTrip(t *testing.T) {
	for name, s := range suites(t, 8, 1.0) {
		t.Run(name, func(t *testing.T) {
			m := s.Miner(3)
			proof, ok := m.Mine(tag(2, 1, types.One))
			if !ok {
				t.Fatal("p=1 mining must succeed")
			}
			if len(proof) != s.ProofSize() {
				t.Fatalf("proof size %d, want %d", len(proof), s.ProofSize())
			}
			if !s.Verifier().Verify(tag(2, 1, types.One), 3, proof) {
				t.Fatal("valid ticket rejected")
			}
		})
	}
}

func TestVerifyRejectsWrongTag(t *testing.T) {
	for name, s := range suites(t, 8, 1.0) {
		t.Run(name, func(t *testing.T) {
			m := s.Miner(3)
			proof, _ := m.Mine(tag(2, 1, types.One))
			if s.Verifier().Verify(tag(2, 1, types.Zero), 3, proof) {
				t.Fatal("ticket for bit 1 accepted for bit 0 — breaks vote-specific eligibility")
			}
			if s.Verifier().Verify(tag(2, 2, types.One), 3, proof) {
				t.Fatal("ticket accepted for wrong iteration")
			}
			if s.Verifier().Verify(tag(3, 1, types.One), 3, proof) {
				t.Fatal("ticket accepted for wrong type")
			}
		})
	}
}

func TestVerifyRejectsWrongNode(t *testing.T) {
	for name, s := range suites(t, 8, 1.0) {
		t.Run(name, func(t *testing.T) {
			proof, _ := s.Miner(3).Mine(tag(2, 1, types.One))
			if s.Verifier().Verify(tag(2, 1, types.One), 4, proof) {
				t.Fatal("node 3's ticket accepted as node 4's")
			}
		})
	}
}

func TestFailedAttemptYieldsNoProof(t *testing.T) {
	for name, s := range suites(t, 8, 0.0) {
		t.Run(name, func(t *testing.T) {
			proof, ok := s.Miner(0).Mine(tag(1, 1, types.Zero))
			if ok || proof != nil {
				t.Fatal("p=0 mining must fail with no proof")
			}
			if s.Verifier().Verify(tag(1, 1, types.Zero), 0, nil) {
				t.Fatal("verifier accepted an unsuccessful attempt")
			}
		})
	}
}

// TestIdealSecrecyBeforeMining checks Figure 1's "else return 0" branch:
// verify answers only for attempts that were actually mined, so the
// adversary cannot probe honest nodes' eligibility.
func TestIdealSecrecyBeforeMining(t *testing.T) {
	f := newIdeal(1.0)
	if f.Verifier().Verify(tag(1, 1, types.Zero), 5, nil) {
		t.Fatal("verify answered before mine was called")
	}
	proof, _ := f.Miner(5).Mine(tag(1, 1, types.Zero))
	if !f.Verifier().Verify(tag(1, 1, types.Zero), 5, proof) {
		t.Fatal("verify must answer after mining")
	}
}

// TestIdealForgedProofRejected: presenting wrong ticket bytes for a
// successful attempt must fail.
func TestIdealForgedProofRejected(t *testing.T) {
	f := newIdeal(1.0)
	proof, _ := f.Miner(5).Mine(tag(1, 1, types.Zero))
	forged := make([]byte, len(proof))
	copy(forged, proof)
	forged[0] ^= 1
	if f.Verifier().Verify(tag(1, 1, types.Zero), 5, forged) {
		t.Fatal("forged ticket bytes accepted")
	}
}

// TestBitSpecificIndependenceIdeal mirrors the VRF test: eligibility for b
// and 1−b must be independent coins in the ideal functionality too.
func TestBitSpecificIndependenceIdeal(t *testing.T) {
	const n = 4000
	const p = 0.3
	f := newIdeal(p)
	var both, forB, forN int
	for i := 0; i < n; i++ {
		m := f.Miner(types.NodeID(i))
		_, okB := m.Mine(tag(1, 7, types.Zero))
		_, okN := m.Mine(tag(1, 7, types.One))
		if okB {
			forB++
		}
		if okN {
			forN++
		}
		if okB && okN {
			both++
		}
	}
	pB, pN, pBoth := float64(forB)/n, float64(forN)/n, float64(both)/n
	if math.Abs(pBoth-pB*pN) > 0.03 {
		t.Fatalf("joint eligibility %.4f far from product %.4f", pBoth, pB*pN)
	}
}

// TestCommitteeSizeConcentration: with p = λ/n the committee size should
// concentrate around λ (this is the statistical core of Lemma 11).
func TestCommitteeSizeConcentration(t *testing.T) {
	const n = 2000
	const lambda = 80
	for name, s := range map[string]Suite{
		"ideal": func() Suite {
			var seed [32]byte
			return NewIdeal(seed, constProb(CommitteeProb(n, lambda)))
		}(),
		"real": func() Suite {
			var seed [32]byte
			pub, secrets := pki.Setup(n, seed)
			return NewReal(pub, secrets, constProb(CommitteeProb(n, lambda)))
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			count := 0
			for i := 0; i < n; i++ {
				if _, ok := s.Miner(types.NodeID(i)).Mine(tag(1, 1, types.Zero)); ok {
					count++
				}
			}
			// Mean λ=80, σ≈8.9; ±36 is ~4σ.
			if count < lambda-36 || count > lambda+36 {
				t.Fatalf("committee size %d far from λ=%d", count, lambda)
			}
		})
	}
}

func TestProbHelpers(t *testing.T) {
	if got := CommitteeProb(1000, 40); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("CommitteeProb = %v", got)
	}
	if got := CommitteeProb(10, 40); got != 1 {
		t.Fatalf("CommitteeProb must clamp to 1, got %v", got)
	}
	if got := CommitteeProb(0, 40); got != 0 {
		t.Fatalf("CommitteeProb with n=0 = %v", got)
	}
	if got := LeaderProb(1000); math.Abs(got-0.0005) > 1e-12 {
		t.Fatalf("LeaderProb = %v", got)
	}
	if got := LeaderProb(0); got != 0 {
		t.Fatalf("LeaderProb with n=0 = %v", got)
	}
}

func TestTagEncodingInjective(t *testing.T) {
	tags := []Tag{
		tag(1, 1, types.Zero),
		tag(1, 1, types.One),
		tag(1, 2, types.Zero),
		tag(2, 1, types.Zero),
		{Domain: "other", Type: 1, Iter: 1, Bit: types.Zero},
		{Domain: "test", Type: 1, Iter: 1, Bit: types.NoBit},
	}
	seen := make(map[string]Tag)
	for _, tg := range tags {
		k := string(tg.Encode())
		if prev, dup := seen[k]; dup {
			t.Fatalf("tags %v and %v encode identically", prev, tg)
		}
		seen[k] = tg
	}
}

func TestTagString(t *testing.T) {
	got := tag(2, 7, types.One).String()
	if got != "test/T2/r7/b1" {
		t.Fatalf("Tag.String() = %q", got)
	}
}

func TestRealVerifierCache(t *testing.T) {
	r := newReal(4, 1.0)
	m := r.Miner(2)
	proof, _ := m.Mine(tag(1, 1, types.Zero))
	v := r.Verifier()
	for i := 0; i < 3; i++ {
		if !v.Verify(tag(1, 1, types.Zero), 2, proof) {
			t.Fatal("cached verification flipped")
		}
	}
	bad := make([]byte, len(proof))
	if v.Verify(tag(1, 1, types.Zero), 2, bad) {
		t.Fatal("zero proof accepted")
	}
	if v.Verify(tag(1, 1, types.Zero), 2, bad) {
		t.Fatal("cached rejection flipped")
	}
}

// figure1 is the F_mine functionality of Figure 1 exactly as written — the
// oracle NewIdeal's success-only table is checked against. Every attempt's
// coin is stored with its mined(m, i) flag, verify answers only for mined
// coins below the difficulty, and each successful attempt returns a fresh
// copy of the ticket.
type figure1 struct {
	prob   ProbFunc
	hidden *prf.State
	coins  map[coinKey]figure1Coin
}

type figure1Coin struct {
	out   prf.Output
	mined bool
}

func newFigure1(seed [32]byte, prob ProbFunc) *figure1 {
	return &figure1{
		prob:   prob,
		hidden: prf.NewState(prf.DeriveKey(prf.Key(seed), "fmine/ideal")),
		coins:  make(map[coinKey]figure1Coin),
	}
}

func (f *figure1) mine(tag Tag, id types.NodeID) ([]byte, bool) {
	key := coinKey{tag: tag.key(), id: id}
	c, ok := f.coins[key]
	if !ok {
		w := wire.Writer{}
		w.NodeID(id)
		c.out = f.hidden.Eval(tag.AppendEncode(w.Buf))
	}
	c.mined = true
	f.coins[key] = c
	if !c.out.Below(f.prob(tag)) {
		return nil, false
	}
	return bytes.Clone(c.out[:]), true
}

func (f *figure1) verify(tag Tag, id types.NodeID, proof []byte) bool {
	c, ok := f.coins[coinKey{tag: tag.key(), id: id}]
	return ok && c.mined && c.out.Below(f.prob(tag)) && bytes.Equal(proof, c.out[:])
}

type figure1Miner struct {
	f  *figure1
	id types.NodeID
}

func (m figure1Miner) Mine(tag Tag) ([]byte, bool) { return m.f.mine(tag, m.id) }
func (m figure1Miner) ID() types.NodeID            { return m.id }

type figure1Verifier struct{ f *figure1 }

func (v figure1Verifier) Verify(tag Tag, id types.NodeID, proof []byte) bool {
	return v.f.verify(tag, id, proof)
}

func (f *figure1) Miner(id types.NodeID) Miner { return figure1Miner{f: f, id: id} }
func (f *figure1) Verifier() Verifier          { return figure1Verifier{f: f} }

// NewIdeal's success-only coin table must be observationally equivalent to
// the full Figure 1 table: identical Mine results (including repeats of failed
// attempts) and identical Verify answers for genuine tickets, failed
// attempts, unmined coins, and forged proof bytes.
func TestIdealLeanEquivalence(t *testing.T) {
	prob := func(tag Tag) float64 {
		// A mix of difficulties so the corpus has successes and failures.
		switch tag.Type {
		case 1:
			return 0.5
		case 2:
			return 0.05
		default:
			return 0
		}
	}
	seed := [32]byte{9}
	full := newFigure1(seed, prob)
	lean := NewIdeal(seed, prob)

	var tags []Tag
	for _, typ := range []uint8{1, 2, 3} {
		for iter := uint32(1); iter <= 4; iter++ {
			for _, b := range []types.Bit{types.Zero, types.One} {
				tags = append(tags, Tag{Domain: "lean-test", Type: typ, Iter: iter, Bit: b})
			}
		}
	}

	const n = 32
	type mined struct {
		tag   Tag
		id    types.NodeID
		proof []byte
	}
	var successes []mined
	for id := types.NodeID(0); id < n; id++ {
		fm, lm := full.Miner(id), lean.Miner(id)
		for _, tag := range tags {
			// Mine twice: the memoised repeat must answer identically too.
			for rep := 0; rep < 2; rep++ {
				fp, fok := fm.Mine(tag)
				lp, lok := lm.Mine(tag)
				if fok != lok || string(fp) != string(lp) {
					t.Fatalf("Mine(%v, %d) rep %d: full (%x, %v) vs lean (%x, %v)", tag, id, rep, fp, fok, lp, lok)
				}
				if fok && rep == 0 {
					successes = append(successes, mined{tag: tag, id: id, proof: fp})
				}
			}
		}
	}
	if len(successes) == 0 {
		t.Fatal("corpus produced no successful tickets; raise the difficulty schedule")
	}

	fv, lv := full.Verifier(), lean.Verifier()
	for id := types.NodeID(0); id < n; id++ {
		for _, tag := range tags {
			// Probe with every successful proof (right and wrong owners),
			// plus garbage bytes.
			for _, m := range successes[:min(len(successes), 8)] {
				if got, want := lv.Verify(tag, id, m.proof), fv.Verify(tag, id, m.proof); got != want {
					t.Fatalf("Verify(%v, %d, proof-of-%d/%v): lean %v, full %v", tag, id, m.id, m.tag, got, want)
				}
			}
			junk := []byte("definitely-not-a-coin")
			if got, want := lv.Verify(tag, id, junk), fv.Verify(tag, id, junk); got != want {
				t.Fatalf("Verify(%v, %d, junk): lean %v, full %v", tag, id, got, want)
			}
		}
	}

	// Unmined coins verify false on both, even for would-be successes.
	fresh := Tag{Domain: "lean-test", Type: 1, Iter: 99, Bit: types.One}
	for id := types.NodeID(0); id < n; id++ {
		if fv.Verify(fresh, id, nil) || lv.Verify(fresh, id, nil) {
			t.Fatalf("unmined tag verified true for node %d", id)
		}
	}

	// The lean table must actually be lean: entries only for successes.
	fullEntries, leanEntries := len(full.coins), len(lean.coins)
	if leanEntries >= fullEntries {
		t.Errorf("lean table has %d entries, full has %d; lean should be strictly smaller on this corpus", leanEntries, fullEntries)
	}
	if leanEntries != len(successes) {
		t.Errorf("lean table has %d entries, want one per successful attempt (%d)", leanEntries, len(successes))
	}
}

// TestIdealLeanInternsProofs pins the coin table's ticket interning: a
// repeated successful attempt on the same (tag, id) key returns the one
// slice stored in the entry — same backing array, zero allocation — while
// the full Figure 1 table returns fresh copies. Verification of the
// interned ticket must agree with the full table's answer.
func TestIdealLeanInternsProofs(t *testing.T) {
	prob := func(Tag) float64 { return 1 } // every attempt succeeds
	seed := [32]byte{7}
	full := newFigure1(seed, prob)
	lean := NewIdeal(seed, prob)
	tag := Tag{Domain: "intern-test", Type: 1, Iter: 3, Bit: types.One}

	const n = 8
	for id := types.NodeID(0); id < n; id++ {
		lm, fm := lean.Miner(id), full.Miner(id)
		p1, ok1 := lm.Mine(tag)
		p2, ok2 := lm.Mine(tag)
		if !ok1 || !ok2 {
			t.Fatalf("id %d: attempts at p=1 failed (%v, %v)", id, ok1, ok2)
		}
		if &p1[0] != &p2[0] {
			t.Errorf("id %d: repeat attempt returned a fresh copy, want the interned slice", id)
		}
		fp1, _ := fm.Mine(tag)
		fp2, _ := fm.Mine(tag)
		if string(fp1) != string(p1) {
			t.Errorf("id %d: interned proof %x, full-table proof %x", id, p1, fp1)
		}
		if &fp1[0] == &fp2[0] {
			t.Errorf("id %d: full table interned a proof; Figure 1 behaviour is a fresh copy", id)
		}
		if !lean.Verifier().Verify(tag, id, p1) || !full.Verifier().Verify(tag, id, p1) {
			t.Errorf("id %d: interned proof rejected", id)
		}
	}

	// The memoised repeat must be allocation-free: the whole point of
	// interning is that committee members re-attempting their round tags
	// stop costing one proof allocation per attempt.
	m := lean.Miner(0)
	if avg := testing.AllocsPerRun(100, func() { m.Mine(tag) }); avg > 0 {
		t.Errorf("repeat lean Mine allocates %.1f times per call, want 0", avg)
	}
}
