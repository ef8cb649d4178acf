package trustnet

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// gobSize returns the gob-encoded size of v.
func gobSize(t *testing.T, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestLongHorizonBoundedState runs a small stationary population for 400
// epochs and checks that the privacy ledger and the social network hold live
// state, not history: their snapshot sections at the last epoch are within
// 10% of their size at the midpoint, and the ledger's stored entries stay
// within owners × named items × recipients while the disclosures it has
// accounted keep growing.
func TestLongHorizonBoundedState(t *testing.T) {
	const peers, half = 64, 200
	eng, err := New(
		WithPeers(peers),
		WithRNGSeed(11),
		WithCoupling(true),
		WithEpochRounds(1),
		WithRecomputeEvery(1),
		WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.8}),
	)
	if err != nil {
		t.Fatal(err)
	}
	type sections struct {
		ledger, network, entries int
		disclosures              int64
	}
	measure := func() sections {
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		led := snap.State.Ledger
		s := sections{
			ledger:  gobSize(t, led),
			network: gobSize(t, snap.State.Engine.Network),
		}
		for _, o := range led.Owners {
			s.entries++
			for _, it := range o.Items {
				s.entries += 1 + len(it.Recipients)
			}
		}
		s.disclosures, _ = eng.Ledger().Totals()
		return s
	}
	runEpochs(t, eng, half)
	mid := measure()
	runEpochs(t, eng, half)
	last := measure()
	t.Logf("epoch %d: %+v; epoch %d: %+v", half, mid, 2*half, last)

	for _, c := range []struct {
		name      string
		mid, last int
	}{{"ledger", mid.ledger, last.ledger}, {"network", mid.network, last.network}} {
		if float64(c.last) > 1.1*float64(c.mid) || float64(c.last) < 0.9*float64(c.mid) {
			t.Errorf("%s section: %d bytes at epoch %d, %d at epoch %d (want within 10%%)",
				c.name, c.mid, half, c.last, 2*half)
		}
	}
	// Every owner is a peer with at most one named item (its profile),
	// disclosed to at most every peer.
	bound := peers * (1 + 1*(1+peers))
	if last.entries > bound {
		t.Errorf("ledger stores %d entries, above the owners × items × recipients bound %d", last.entries, bound)
	}
	if last.disclosures < 2*mid.disclosures-mid.disclosures/10 || last.disclosures <= int64(bound) {
		t.Errorf("disclosures %d at epoch %d, %d at epoch %d: the run did not keep disclosing",
			mid.disclosures, half, last.disclosures, 2*half)
	}
}

// TestPrivacyFacetsReadIsPure pins PrivacyFacets as a read: querying every
// user's privacy facet after reports were applied between epochs leaves the
// continued run's history bit-identical to an unobserved twin's — the
// reports' raters stay dirty for the next epoch's facet refresh.
func TestPrivacyFacetsReadIsPure(t *testing.T) {
	observed, err := New(sessionScenario(88, WithInteractionsPerRound(2))...)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(sessionScenario(88, WithInteractionsPerRound(2))...)
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 6; ep++ {
		for _, eng := range []*Engine{observed, twin} {
			runEpochs(t, eng, 1)
			if err := eng.SubmitReports(Report{Rater: 10 + ep, Ratee: 9, Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
		_ = observed.PrivacyFacets()
	}
	if !bytes.Equal(histBytes(t, observed.History()), histBytes(t, twin.History())) {
		t.Fatal("reading privacy facets between epochs changed the run")
	}
}
