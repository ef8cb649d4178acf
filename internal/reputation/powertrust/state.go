package powertrust

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/reputation"
)

// feedbackEntry flattens one (rater, ratee) aggregate for serialization.
type feedbackEntry struct {
	Rater, Ratee int
	Sum          float64
	Count        int
}

// mechanismState is the gob-serialized mutable state of the mechanism. The
// CSR is derived state: it is rematerialized in full from the feedback
// graph on the first Compute after a restore (materialization is pure, so
// restore-then-run matches an uninterrupted run bit for bit).
type mechanismState struct {
	Feedback []feedbackEntry
	Scores   []float64
	Power    []int
	Dirty    bool
	// Convergence diagnostics of the most recent iterative Compute, so
	// restored runs report the same diagnostics an uninterrupted run would.
	Conv    reputation.Convergence
	HasConv bool
}

// MechanismState implements reputation.Snapshotter. Feedback rows are
// stored sorted, so walking them in order yields the canonical entry order
// and equal states encode to equal blobs.
func (m *Mechanism) MechanismState() ([]byte, error) {
	st := mechanismState{
		Scores: m.Walk.Raw(),
		Power:  append([]int(nil), m.power...),
		Dirty:  m.dirty,
	}
	st.Conv, st.HasConv = m.Walk.LastConvergence()
	for i := 0; i < m.cfg.N; i++ {
		cols, pairs := m.feedback.Row(i)
		for k, j := range cols {
			st.Feedback = append(st.Feedback, feedbackEntry{Rater: i, Ratee: int(j), Sum: pairs[k].sum, Count: pairs[k].count})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("powertrust: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Snapshotter. Out-of-range,
// out-of-order or duplicate feedback entries, and entries with no ratings,
// are rejected and leave the mechanism untouched.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("powertrust: decode state: %w", err)
	}
	if len(st.Scores) != m.cfg.N {
		return fmt.Errorf("powertrust: state for %d peers, want %d", len(st.Scores), m.cfg.N)
	}
	for _, e := range st.Feedback {
		if e.Count < 1 {
			return fmt.Errorf("powertrust: state entry %d->%d has count %d", e.Rater, e.Ratee, e.Count)
		}
	}
	err := m.feedback.Load(len(st.Feedback), func(k int) (int, int, pair) {
		e := st.Feedback[k]
		return e.Rater, e.Ratee, pair{sum: e.Sum, count: e.Count}
	})
	if err != nil {
		return fmt.Errorf("powertrust: state: %w", err)
	}
	m.Walk.Resume(st.Scores, st.Conv, st.HasConv)
	m.power = append([]int(nil), st.Power...)
	m.dirty = st.Dirty
	return nil
}

var _ reputation.Snapshotter = (*Mechanism)(nil)
