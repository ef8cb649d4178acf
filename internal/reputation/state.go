package reputation

import (
	"fmt"

	"repro/internal/sim"
)

// Snapshotter is implemented by mechanisms whose mutable state can be
// captured as an opaque blob and later restored into a freshly constructed
// mechanism with the same configuration. It is the seam the engine-wide
// snapshot/resume feature runs through: restore-then-run must be bit-for-bit
// identical to an uninterrupted run.
//
// Mechanisms without mutable state (the None baseline) return an empty blob.
type Snapshotter interface {
	// MechanismState serializes the mechanism's mutable state.
	MechanismState() ([]byte, error)
	// RestoreMechanismState restores a blob captured from a mechanism with
	// identical configuration.
	RestoreMechanismState(data []byte) error
}

// LocalTrustEntry is one (rater, ratee) aggregate of a serialized
// local-trust matrix.
type LocalTrustEntry struct {
	I, J       int32
	Sat, Unsat int32
}

// LocalTrustState is the serializable state of a LocalTrust matrix: the
// sparse entry list, sorted by rater, then ratee, so equal matrices encode
// to equal blobs. The dirty-row set is not serialized: a restored mechanism
// rebuilds every row on its first refresh.
type LocalTrustState struct {
	N       int
	Entries []LocalTrustEntry
}

// State captures the matrix. Rows are stored sorted, so walking them in
// order yields the canonical entry order.
func (l *LocalTrust) State() LocalTrustState {
	st := LocalTrustState{N: l.N()}
	for i := 0; i < st.N; i++ {
		cols, cells := l.Ratings.Row(i)
		for k, j := range cols {
			st.Entries = append(st.Entries, LocalTrustEntry{I: int32(i), J: j, Sat: cells[k].sat, Unsat: cells[k].unsat})
		}
	}
	return st
}

// SetState restores a captured matrix of the same dimension, replacing the
// current contents and emptying the dirty set. Out-of-range, out-of-order
// or duplicate entries are rejected and leave the matrix untouched.
func (l *LocalTrust) SetState(st LocalTrustState) error {
	if st.N != l.N() {
		return fmt.Errorf("reputation: local-trust state for %d peers, want %d", st.N, l.N())
	}
	err := l.Load(len(st.Entries), func(k int) (int, int, cell) {
		e := st.Entries[k]
		return int(e.I), int(e.J), cell{sat: e.Sat, unsat: e.Unsat}
	})
	if err != nil {
		return fmt.Errorf("reputation: local-trust state: %w", err)
	}
	return nil
}

// GathererState is the serializable state of a Gatherer, including the
// position of its private disclosure-draw stream.
type GathererState struct {
	RNG        sim.RNGState
	Disclosure []float64
	SharedBy   map[int]int64
	Gathered   int64
	Withheld   int64
}

// State captures the gatherer.
func (g *Gatherer) State() GathererState {
	st := GathererState{
		RNG:        g.rng.State(),
		Disclosure: append([]float64(nil), g.disclosure...),
		SharedBy:   make(map[int]int64, len(g.sharedBy)),
		Gathered:   g.Gathered,
		Withheld:   g.Withheld,
	}
	for k, v := range g.sharedBy {
		st.SharedBy[k] = v
	}
	return st
}

// RestoreGatherer rebuilds a gatherer from a captured state.
func RestoreGatherer(st GathererState) *Gatherer {
	rng := sim.NewRNG(0)
	rng.SetState(st.RNG)
	g := NewGatherer(rng, st.Disclosure)
	g.Gathered = st.Gathered
	g.Withheld = st.Withheld
	for k, v := range st.SharedBy {
		g.sharedBy[k] = v
	}
	return g
}

// MechanismState implements Snapshotter: the baseline has no mutable state.
func (*None) MechanismState() ([]byte, error) { return nil, nil }

// RestoreMechanismState implements Snapshotter.
func (*None) RestoreMechanismState([]byte) error { return nil }

var _ Snapshotter = (*None)(nil)
