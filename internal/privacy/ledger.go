package privacy

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/social"
)

// Disclosure is one accountable information-flow event: owner's item reached
// a recipient, for a purpose, at a time, with or without the owner's policy
// consenting. (Non-consented events only arise in attack experiments —
// e.g. a leaky node forwarding data against a NoForward obligation.)
type Disclosure struct {
	Owner       int
	Item        string
	Sensitivity social.Sensitivity
	Recipient   int
	Purpose     Purpose
	At          sim.Time
	Consented   bool
}

// feedbackExposure is one feedback disclosure's exposure term: a fresh
// low-sensitivity item that reaches exactly one recipient, the mechanism.
var feedbackExposure = SensitivityWeight(social.Low) * math.Log2(1+1)

// Ledger is the accountability record (OECD accountability + openness) that
// feeds the privacy facet. It keeps per-owner aggregates, not events, so its
// size tracks owners × named items × recipients and never the length of the
// run:
//
//   - a consent tally (disclosures, consented ones);
//   - named items (a profile attribute, a PriServ key), each with its
//     distinct recipient set and the maximum sensitivity it was disclosed
//     at;
//   - feedback disclosures (RecordFeedback), each a fresh single-recipient
//     item, folded into a counter and a running exposure sum.
//
// Record and RecordFeedback update the aggregates in place and mark the owner
// dirty. Every query reads only the owner's own aggregates, so the per-user
// facet queries of an epoch's measurement barrier fan out read-only over
// shards.
type Ledger struct {
	owners map[int]*OwnerState
	// facetDirty marks owners whose aggregates changed since the last
	// ResetDirty — the privacy leg of the epoch tail's facet dirty set.
	facetDirty metrics.DirtySet
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{owners: make(map[int]*OwnerState)}
}

// owner returns id's aggregates, created on first use, after counting one
// disclosure into its consent tally.
func (l *Ledger) owner(id int, consented bool) *OwnerState {
	a := l.owners[id]
	if a == nil {
		a = &OwnerState{Owner: id}
		l.owners[id] = a
	}
	a.Disclosures++
	if consented {
		a.Consented++
	}
	return a
}

// Record folds a disclosure of a named item into its owner's aggregates:
// the consent tally, the item's recipient set and its maximum sensitivity.
func (l *Ledger) Record(d Disclosure) {
	a := l.owner(d.Owner, d.Consented)
	i := sort.Search(len(a.Items), func(i int) bool { return a.Items[i].Item >= d.Item })
	if i == len(a.Items) || a.Items[i].Item != d.Item {
		a.Items = append(a.Items, ItemState{})
		copy(a.Items[i+1:], a.Items[i:])
		a.Items[i] = ItemState{Item: d.Item}
	}
	it := &a.Items[i]
	if w := SensitivityWeight(d.Sensitivity); w > it.Weight {
		it.Weight = w
	}
	j := sort.SearchInts(it.Recipients, d.Recipient)
	if j == len(it.Recipients) || it.Recipients[j] != d.Recipient {
		it.Recipients = append(it.Recipients, 0)
		copy(it.Recipients[j+1:], it.Recipients[j:])
		it.Recipients[j] = d.Recipient
	}
	l.facetDirty.Mark(d.Owner)
}

// RecordFeedback accounts one shared feedback report: the rater's
// behavioural data, disclosed with consent and at low sensitivity to the
// reputation mechanism. Each report is a fresh item with that single
// recipient, so it adds the same fixed exposure term.
func (l *Ledger) RecordFeedback(rater int) {
	a := l.owner(rater, true)
	a.Feedback++
	a.FeedbackExposure += feedbackExposure
	l.facetDirty.Mark(rater)
}

// Tally returns how many disclosures about owner were recorded and how many
// of them were consented.
func (l *Ledger) Tally(owner int) (total, consented int64) {
	if a := l.owners[owner]; a != nil {
		return a.Disclosures, a.Consented
	}
	return 0, 0
}

// Totals returns how many disclosures were recorded across all owners and
// how many of them were consented.
func (l *Ledger) Totals() (total, consented int64) {
	for _, a := range l.owners {
		total += a.Disclosures
		consented += a.Consented
	}
	return total, consented
}

// Exposure returns owner's information exposure: for each disclosed item,
// sensitivity weight × log2(1+distinct recipients), summed. A user whose
// high-sensitivity data reached many parties has high exposure.
//
// The sum folds the feedback items first, then the named items in ascending
// key order. That is the ascending order of all item keys for every key the
// workload mints ("feedback/…" sorts before "profile/…"), and feedback items
// all add the same term, so the running feedback sum is the exact prefix of
// that fold.
func (l *Ledger) Exposure(owner int) float64 {
	a := l.owners[owner]
	if a == nil {
		return 0
	}
	total := a.FeedbackExposure
	for i := range a.Items {
		it := &a.Items[i]
		total += it.Weight * math.Log2(1+float64(len(it.Recipients)))
	}
	return total
}

// NormalizedExposure maps exposure into [0,1) via x/(x+scale); scale is the
// exposure at which a user counts as "half exposed" (clamped to >= 1).
func (l *Ledger) NormalizedExposure(owner int, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	x := l.Exposure(owner)
	return x / (x + scale)
}

// RespectRate returns the fraction of owner's disclosures that were
// consented (1 when there are none): the "policy respect" half of the
// privacy facet.
func (l *Ledger) RespectRate(owner int) float64 {
	total, consented := l.Tally(owner)
	if total == 0 {
		return 1
	}
	return float64(consented) / float64(total)
}

// PrivacyFacet computes owner's privacy satisfaction P_u as the paper's
// "satisfaction in terms of privacy guarantees": respect of the user's PPs
// times how much information did NOT have to be shared.
func (l *Ledger) PrivacyFacet(owner int, scale float64) float64 {
	return l.RespectRate(owner) * (1 - l.NormalizedExposure(owner, scale))
}

// DirtyOwners returns the ascending owner ids whose aggregates changed since
// the last ResetDirty — the privacy leg of the epoch tail's facet dirty set.
// The slice is owned by the ledger and valid until its next mutation;
// callers that need it past a reset must copy it first.
func (l *Ledger) DirtyOwners() []int { return l.facetDirty.Sorted() }

// ResetDirty clears the dirty-owner set, typically after an epoch's facet
// measurement has consumed it.
func (l *Ledger) ResetDirty() { l.facetDirty.Reset() }
