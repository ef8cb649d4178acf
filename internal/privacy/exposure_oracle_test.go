package privacy

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/social"
)

// refLedger is the event-indexed ledger the aggregates replaced, kept as the
// reference: every feedback report is its own "feedback/<rater>/<tx>" item,
// and Exposure folds all of an owner's items in ascending key order.
type refLedger struct {
	byOwner map[int]map[string]map[int]bool
	sens    map[int]map[string]float64
	total   map[int]int64
	ok      map[int]int64
	tx      uint64
}

func newRefLedger() *refLedger {
	return &refLedger{
		byOwner: make(map[int]map[string]map[int]bool),
		sens:    make(map[int]map[string]float64),
		total:   make(map[int]int64),
		ok:      make(map[int]int64),
	}
}

func (r *refLedger) record(d Disclosure) {
	if r.byOwner[d.Owner] == nil {
		r.byOwner[d.Owner] = make(map[string]map[int]bool)
		r.sens[d.Owner] = make(map[string]float64)
	}
	if r.byOwner[d.Owner][d.Item] == nil {
		r.byOwner[d.Owner][d.Item] = make(map[int]bool)
	}
	r.byOwner[d.Owner][d.Item][d.Recipient] = true
	if w := SensitivityWeight(d.Sensitivity); w > r.sens[d.Owner][d.Item] {
		r.sens[d.Owner][d.Item] = w
	}
	r.total[d.Owner]++
	if d.Consented {
		r.ok[d.Owner]++
	}
}

func (r *refLedger) recordFeedback(rater int) {
	r.tx++
	r.record(Disclosure{
		Owner:       rater,
		Item:        "feedback/" + strconv.Itoa(rater) + "/" + strconv.FormatUint(r.tx, 10),
		Sensitivity: social.Low,
		Recipient:   -1,
		Purpose:     ReputationUse,
		Consented:   true,
	})
}

func (r *refLedger) exposure(owner int) float64 {
	items := r.byOwner[owner]
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += r.sens[owner][k] * math.Log2(1+float64(len(items[k])))
	}
	return total
}

func (r *refLedger) privacyFacet(owner int, scale float64) float64 {
	respect := 1.0
	if r.total[owner] > 0 {
		respect = float64(r.ok[owner]) / float64(r.total[owner])
	}
	if scale < 1 {
		scale = 1
	}
	x := r.exposure(owner)
	return respect * (1 - x/(x+scale))
}

// TestExposureMatchesSortedKeyOracle drives the aggregate ledger and the
// event-indexed reference with the same mixed traffic — feedback singletons,
// repeated profile disclosures, PriServ-style keys with several recipients,
// sensitivities and consent outcomes — and restores the aggregate ledger
// from a gob-encoded snapshot at random points. Exposure and PrivacyFacet
// must agree bit for bit throughout. Every named key sorts after
// "feedback/", as every key the workload and PriServ mint does, so the
// reference's sorted fold visits the feedback items first.
func TestExposureMatchesSortedKeyOracle(t *testing.T) {
	const owners = 12
	named := []string{"item/a", "item/b", "profile/x", "u/email", "u/medical"}
	scales := []float64{0.5, 4, 50}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		l, ref := NewLedger(), newRefLedger()
		for step := 0; step < 3000; step++ {
			owner := rng.Intn(owners)
			switch op := rng.Intn(10); {
			case op < 5:
				l.RecordFeedback(owner)
				ref.recordFeedback(owner)
			case op < 8:
				d := Disclosure{
					Owner: owner, Item: "profile/" + strconv.Itoa(owner),
					Sensitivity: social.Medium, Recipient: rng.Intn(owners),
					Purpose: SocialUse, Consented: true,
				}
				l.Record(d)
				ref.record(d)
			default:
				d := Disclosure{
					Owner: owner, Item: named[rng.Intn(len(named))],
					Sensitivity: social.Sensitivity(rng.Intn(4) + 1),
					Recipient:   rng.Intn(2*owners) - 1,
					Purpose:     CommercialUse, Consented: rng.Bool(0.8),
				}
				l.Record(d)
				ref.record(d)
			}
			if rng.Bool(0.01) {
				l = roundTrip(t, l)
			}
			if step%97 != 0 {
				continue
			}
			for u := -1; u <= owners; u++ {
				if got, want := l.Exposure(u), ref.exposure(u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: Exposure(%d) = %v, oracle %v", seed, step, u, got, want)
				}
				for _, sc := range scales {
					if got, want := l.PrivacyFacet(u, sc), ref.privacyFacet(u, sc); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: PrivacyFacet(%d, %v) = %v, oracle %v", seed, step, u, sc, got, want)
					}
				}
			}
		}
	}
}

// roundTrip snapshots l through gob into a fresh ledger and checks the
// restored ledger captures the identical state.
func roundTrip(t *testing.T, l *Ledger) *Ledger {
	t.Helper()
	st := l.State()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var dec LedgerState
	if err := gob.NewDecoder(&buf).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	out := NewLedger()
	if err := out.SetState(dec); err != nil {
		t.Fatal(err)
	}
	if got := out.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored state differs:\n%+v\n%+v", got, st)
	}
	if a, b := out.DirtyOwners(), l.DirtyOwners(); !reflect.DeepEqual(a, b) {
		t.Fatalf("restored dirty owners %v, want %v", a, b)
	}
	return out
}

// TestLedgerSetStateRejectsMalformed pins the validation of snapshot input:
// out-of-order or inconsistent aggregates fail and leave the ledger as it
// was.
func TestLedgerSetStateRejectsMalformed(t *testing.T) {
	good := func() LedgerState {
		return LedgerState{
			Owners: []OwnerState{
				{Owner: 1, Disclosures: 3, Consented: 3, Feedback: 1, FeedbackExposure: 0.2,
					Items: []ItemState{{Item: "profile/1", Weight: 0.5, Recipients: []int{2, 5}}}},
				{Owner: 4, Disclosures: 1, Consented: 0},
			},
			FacetDirty: []int{1},
		}
	}
	cases := map[string]func(*LedgerState){
		"owners out of order":   func(s *LedgerState) { s.Owners[1].Owner = 1 },
		"consented > total":     func(s *LedgerState) { s.Owners[1].Consented = 2 },
		"feedback > consented":  func(s *LedgerState) { s.Owners[0].Feedback = 4 },
		"NaN feedback exposure": func(s *LedgerState) { s.Owners[0].FeedbackExposure = math.NaN() },
		"negative weight":       func(s *LedgerState) { s.Owners[0].Items[0].Weight = -1 },
		"duplicate recipient":   func(s *LedgerState) { s.Owners[0].Items[0].Recipients = []int{2, 2} },
		"items out of order": func(s *LedgerState) {
			s.Owners[0].Items = append(s.Owners[0].Items, ItemState{Item: "a"})
		},
		"dirty unknown owner": func(s *LedgerState) { s.FacetDirty = []int{1, 9} },
		"dirty out of order":  func(s *LedgerState) { s.FacetDirty = []int{4, 1} },
	}
	for name, mutate := range cases {
		l := NewLedger()
		l.RecordFeedback(0)
		before := l.State()
		st := good()
		mutate(&st)
		if err := l.SetState(st); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !reflect.DeepEqual(l.State(), before) {
			t.Fatalf("%s: rejected state modified the ledger", name)
		}
	}
	l := NewLedger()
	if err := l.SetState(good()); err != nil {
		t.Fatal(err)
	}
	if total, ok := l.Totals(); total != 4 || ok != 3 {
		t.Fatalf("restored totals = %d, %d", total, ok)
	}
}
