package privacy

import (
	"fmt"
	"math"
	"sort"
)

// LedgerState is the serializable state of a Ledger: its per-owner
// aggregates in canonical order (ascending owner, then item key, then
// recipient), plus the owners dirty since the last ResetDirty. The dirty
// set cannot be derived from the aggregates (it depends on when the last
// reset ran), and the epoch tail's DirtyFacets accounting must be identical
// on a resumed run, so it is captured explicitly.
type LedgerState struct {
	Owners []OwnerState
	// FacetDirty lists the owners marked dirty at capture time (ascending).
	FacetDirty []int
}

// OwnerState is one owner's aggregates, as the ledger keeps them.
type OwnerState struct {
	Owner int
	// Disclosures and Consented are the owner's consent tally.
	Disclosures int64
	Consented   int64
	// Feedback counts the owner's feedback disclosures; FeedbackExposure is
	// their running exposure sum, kept as-is because re-adding the terms
	// would cost one addition per report.
	Feedback         int64
	FeedbackExposure float64
	// Items holds the named items in ascending key order.
	Items []ItemState
}

// ItemState is one named item: its key, maximum sensitivity weight, and
// distinct recipients (ascending).
type ItemState struct {
	Item       string
	Weight     float64
	Recipients []int
}

func (o *OwnerState) clone() OwnerState {
	c := *o
	c.Items = append([]ItemState(nil), o.Items...)
	for j := range c.Items {
		c.Items[j].Recipients = append([]int(nil), o.Items[j].Recipients...)
	}
	return c
}

// validate rejects aggregates no sequence of Record calls can produce.
func (o *OwnerState) validate() error {
	finite := func(x float64) bool { return x >= 0 && !math.IsInf(x, 0) }
	if o.Consented < 0 || o.Consented > o.Disclosures || o.Feedback < 0 ||
		o.Feedback > o.Consented || !finite(o.FeedbackExposure) {
		return fmt.Errorf("privacy: ledger state owner %d has inconsistent tallies", o.Owner)
	}
	for j, it := range o.Items {
		if j > 0 && it.Item <= o.Items[j-1].Item {
			return fmt.Errorf("privacy: ledger state owner %d items not strictly ascending at %q", o.Owner, it.Item)
		}
		if !finite(it.Weight) || !strictlyAscending(it.Recipients) {
			return fmt.Errorf("privacy: ledger state owner %d item %q is malformed", o.Owner, it.Item)
		}
	}
	return nil
}

func strictlyAscending(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// State captures the ledger's aggregates.
func (l *Ledger) State() LedgerState {
	ids := make([]int, 0, len(l.owners))
	for id := range l.owners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	st := LedgerState{
		Owners:     make([]OwnerState, len(ids)),
		FacetDirty: append([]int(nil), l.facetDirty.Sorted()...),
	}
	for k, id := range ids {
		st.Owners[k] = l.owners[id].clone()
	}
	return st
}

// SetState replaces the ledger's aggregates with the captured ones.
// Restoring in place keeps existing references to the ledger (the workload
// engine's, the dynamics') valid. A state that is out of canonical order or
// inconsistent is rejected and leaves the ledger untouched.
func (l *Ledger) SetState(st LedgerState) error {
	owners := make(map[int]*OwnerState, len(st.Owners))
	for k := range st.Owners {
		o := st.Owners[k].clone()
		if k > 0 && o.Owner <= st.Owners[k-1].Owner {
			return fmt.Errorf("privacy: ledger state owners not strictly ascending at %d", o.Owner)
		}
		if err := o.validate(); err != nil {
			return err
		}
		owners[o.Owner] = &o
	}
	if !strictlyAscending(st.FacetDirty) {
		return fmt.Errorf("privacy: ledger state dirty owners not strictly ascending")
	}
	for _, id := range st.FacetDirty {
		if owners[id] == nil {
			return fmt.Errorf("privacy: ledger state marks unknown owner %d dirty", id)
		}
	}
	l.owners = owners
	l.facetDirty.Reset()
	for _, id := range st.FacetDirty {
		l.facetDirty.Mark(id)
	}
	return nil
}
