package workload

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
)

func newEigen(t *testing.T, n int) reputation.Mechanism {
	t.Helper()
	pre := []int{0}
	if n > 1 {
		pre = append(pre, 1)
	}
	m, err := eigentrust.New(eigentrust.Config{N: n, Pretrusted: pre})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mixMalicious(frac float64) adversary.Mix {
	return adversary.Mix{Fractions: map[adversary.Class]float64{
		adversary.Honest:    1 - frac,
		adversary.Malicious: frac,
	}}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 1}, newEigen(t, 1)); err == nil {
		t.Fatal("NumPeers=1 accepted")
	}
	if _, err := NewEngine(Config{NumPeers: 10, Disclosure: 2}, newEigen(t, 10)); err == nil {
		t.Fatal("disclosure > 1 accepted")
	}
	if _, err := NewEngine(Config{NumPeers: 10}, nil); err == nil {
		t.Fatal("nil mechanism accepted")
	}
	if _, err := NewEngine(Config{NumPeers: 10, Graph: GraphKind(9)}, newEigen(t, 10)); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Summary {
		e, err := NewEngine(Config{Seed: 42, NumPeers: 40, Mix: mixMalicious(0.3)}, newEigen(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		e.Run(20)
		return e.Summarize()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestRoundsProduceInteractions(t *testing.T) {
	e, err := NewEngine(Config{Seed: 1, NumPeers: 30}, newEigen(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	log := tapInteractions(e)
	st := e.Round()
	if st.Interactions == 0 {
		t.Fatal("no interactions in a round")
	}
	if len(*log) != st.Interactions {
		t.Fatalf("log has %d, round reports %d", len(*log), st.Interactions)
	}
}

func TestReputationSuppressesBadService(t *testing.T) {
	// With 30% malicious peers, EigenTrust + best-selection must yield far
	// less bad service than the no-reputation baseline — E7's core shape.
	cfgBase := Config{Seed: 7, NumPeers: 60, Mix: mixMalicious(0.3), RecomputeEvery: 2}

	eRep, err := NewEngine(cfgBase, newEigen(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	eRep.Run(60)
	rep := eRep.Summarize()

	eNone, err := NewEngine(cfgBase, reputation.NewNone(60))
	if err != nil {
		t.Fatal(err)
	}
	eNone.Run(60)
	none := eNone.Summarize()

	if rep.RecentBadRate >= none.RecentBadRate {
		t.Fatalf("reputation did not help: rep=%v none=%v", rep.RecentBadRate, none.RecentBadRate)
	}
	if rep.RecentBadRate > 0.15 {
		t.Fatalf("converged bad rate = %v, want < 0.15", rep.RecentBadRate)
	}
	if none.RecentBadRate < 0.15 {
		t.Fatalf("baseline bad rate suspiciously low: %v", none.RecentBadRate)
	}
}

func TestTauPositiveWithHonestMajority(t *testing.T) {
	e, err := NewEngine(Config{Seed: 3, NumPeers: 50, Mix: mixMalicious(0.2), RecomputeEvery: 2}, newEigen(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(120)
	s := e.Summarize()
	if s.Tau < 0.25 {
		t.Fatalf("reputation/ground-truth tau = %v, want meaningful positive", s.Tau)
	}
}

func TestDisclosureReducesSharing(t *testing.T) {
	cfg := Config{Seed: 5, NumPeers: 40, Mix: mixMalicious(0.3), Disclosure: 0.2}
	e, err := NewEngine(cfg, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	s := e.Summarize()
	if s.ShareRate < 0.1 || s.ShareRate > 0.3 {
		t.Fatalf("share rate = %v, want ~0.2", s.ShareRate)
	}
}

func TestLowDisclosureWeakensReputation(t *testing.T) {
	run := func(d float64) Summary {
		cfg := Config{Seed: 11, NumPeers: 60, Mix: mixMalicious(0.3), Disclosure: d, RecomputeEvery: 2}
		e, err := NewEngine(cfg, newEigen(t, 60))
		if err != nil {
			t.Fatal(err)
		}
		e.Run(60)
		return e.Summarize()
	}
	full := run(1.0)
	tiny := run(0.03)
	if tiny.Tau >= full.Tau {
		t.Fatalf("tau with 3%% disclosure (%v) not below full disclosure (%v)", tiny.Tau, full.Tau)
	}
}

func TestSetDisclosureMidRun(t *testing.T) {
	e, err := NewEngine(Config{Seed: 9, NumPeers: 20}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	zero := make([]float64, 20)
	e.SetDisclosure(zero)
	g := e.Gatherer()
	e.Run(5)
	if g.Gathered != 0 {
		t.Fatalf("zero disclosure still gathered %d", g.Gathered)
	}
}

func TestHonestOverride(t *testing.T) {
	// Forcing full dishonesty must destroy the score/ground-truth
	// correlation even with honest-class peers.
	run := func(h float64) float64 {
		e, err := NewEngine(Config{Seed: 13, NumPeers: 40, Mix: mixMalicious(0.3), RecomputeEvery: 2}, newEigen(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		override := make([]float64, 40)
		for i := range override {
			override[i] = h
		}
		e.SetHonestOverride(override)
		e.Run(40)
		return e.Summarize().Tau
	}
	honest := run(1.0)
	liars := run(0.0)
	if liars >= honest {
		t.Fatalf("all-liars tau %v not below all-honest tau %v", liars, honest)
	}
	if liars > 0 {
		t.Fatalf("all-liars tau = %v, want <= 0", liars)
	}
}

func TestClassesExposedAndStable(t *testing.T) {
	e, err := NewEngine(Config{Seed: 15, NumPeers: 30, Mix: mixMalicious(0.5)}, newEigen(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	classes := e.Classes()
	nMal := 0
	for _, c := range classes {
		if c == adversary.Malicious {
			nMal++
		}
	}
	if nMal != 15 {
		t.Fatalf("malicious count = %d, want 15", nMal)
	}
	classes[0] = adversary.Colluder
	if e.Classes()[0] == adversary.Colluder && classes[0] == e.Classes()[0] {
		// Ensure Classes returns a copy: mutating the returned slice must
		// not affect subsequent calls unless the engine itself changed.
		t.Fatal("Classes exposed internal state")
	}
}

func TestSatisfactionsTracked(t *testing.T) {
	e, err := NewEngine(Config{Seed: 17, NumPeers: 25}, newEigen(t, 25))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	s := e.Summarize()
	if s.ConsumerSat <= 0.3 {
		t.Fatalf("all-honest consumer satisfaction = %v, want high", s.ConsumerSat)
	}
	if s.ProviderSat <= 0.3 {
		t.Fatalf("provider satisfaction = %v", s.ProviderSat)
	}
	if len(e.ConsumerSatisfactions()) != 25 || len(e.ProviderSatisfactions()) != 25 {
		t.Fatal("per-user satisfactions wrong length")
	}
}

func TestGraphKinds(t *testing.T) {
	for _, g := range []GraphKind{BarabasiAlbert, WattsStrogatz, ErdosRenyi} {
		e, err := NewEngine(Config{Seed: 19, NumPeers: 30, Graph: g}, newEigen(t, 30))
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		e.Run(5)
		if e.Summarize().Rounds != 5 {
			t.Fatalf("graph %d did not run", g)
		}
	}
}

func TestProportionalSelection(t *testing.T) {
	e, err := NewEngine(Config{Seed: 21, NumPeers: 40, Mix: mixMalicious(0.3),
		Selection: SelectProportional, RecomputeEvery: 2}, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(40)
	s := e.Summarize()
	if s.Rounds != 40 || s.BadServiceRate == 0 {
		t.Fatalf("proportional run summary = %+v", s)
	}
}
