package workload

import (
	"strconv"
	"testing"

	"repro/internal/privacy"
)

func TestTrustGateValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 10, TrustGate: 1}, newEigen(t, 10)); err == nil {
		t.Fatal("gate=1 accepted")
	}
	if _, err := NewEngine(Config{NumPeers: 10, TrustGate: -0.1}, newEigen(t, 10)); err == nil {
		t.Fatal("negative gate accepted")
	}
}

func TestTrustGateCausesFailures(t *testing.T) {
	open, err := NewEngine(Config{Seed: 31, NumPeers: 40, Mix: mixMalicious(0.3), RecomputeEvery: 2}, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewEngine(Config{Seed: 31, NumPeers: 40, Mix: mixMalicious(0.3),
		RecomputeEvery: 2, TrustGate: 0.9}, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	open.Run(30)
	strict.Run(30)
	if open.GateFailures != 0 {
		t.Fatalf("ungated engine recorded %d gate failures", open.GateFailures)
	}
	if strict.GateFailures == 0 {
		t.Fatal("strict gate never failed an allocation")
	}
	// Failed allocations depress consumer satisfaction.
	if strict.Summarize().ConsumerSat >= open.Summarize().ConsumerSat {
		t.Fatalf("strict gate did not lower satisfaction: %v vs %v",
			strict.Summarize().ConsumerSat, open.Summarize().ConsumerSat)
	}
}

func TestAttachLedgerAccountsFlows(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 33, NumPeers: 20, RecomputeEvery: 2}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	ledger := privacy.NewLedger()
	eng.AttachLedger(ledger, 50)
	eng.Run(10)
	total, consented := ledger.Totals()
	if total == 0 {
		t.Fatal("ledger empty after interactions")
	}
	if consented != total {
		t.Fatal("engine recorded unconsented flow")
	}
	// Both flow kinds are recorded: profile->provider and feedback->mechanism.
	var profile, feedback int64
	for _, o := range ledger.State().Owners {
		feedback += o.Feedback
		for _, it := range o.Items {
			if it.Item != "profile/"+strconv.Itoa(o.Owner) {
				t.Fatalf("owner %d has unexpected item %q", o.Owner, it.Item)
			}
			profile += int64(len(it.Recipients))
		}
	}
	if profile == 0 || feedback == 0 {
		t.Fatalf("flows: profile=%d feedback=%d", profile, feedback)
	}
	// Privacy facets reflect the accounting.
	for u, p := range eng.PrivacyFacets() {
		if p <= 0 || p >= 1 {
			t.Fatalf("user %d privacy facet = %v, want (0,1)", u, p)
		}
	}
}

func TestPrivacyFacetsWithoutLedger(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 35, NumPeers: 10}, newEigen(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(5)
	for _, p := range eng.PrivacyFacets() {
		if p != 1 {
			t.Fatalf("facet = %v without ledger", p)
		}
	}
}

func TestZeroDisclosureNoFeedbackFlows(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 37, NumPeers: 20}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	ledger := privacy.NewLedger()
	eng.AttachLedger(ledger, 50)
	eng.SetDisclosure(make([]float64, 20))
	eng.Run(10)
	for _, o := range ledger.State().Owners {
		if o.Feedback != 0 {
			t.Fatal("feedback flow recorded at zero disclosure")
		}
	}
}
