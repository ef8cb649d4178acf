package eigentrust

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/reputation"
)

// mechanismState is the gob-serialized mutable state of the mechanism. The
// pre-trust vector is configuration and is rebuilt by New. The local-trust
// matrix travels in its sparse form; the CSR itself is derived state and is
// rematerialized in full from the matrix on the first Compute after a
// restore — row materialization is pure, so restore-then-run is bit-for-bit
// identical to an uninterrupted run.
type mechanismState struct {
	LT     reputation.LocalTrustState
	Scores []float64
	Dirty  bool
	// Convergence diagnostics of the most recent iterative Compute, so
	// restored runs report the same diagnostics an uninterrupted run would.
	Conv    reputation.Convergence
	HasConv bool
}

// MechanismState implements reputation.Snapshotter.
func (m *Mechanism) MechanismState() ([]byte, error) {
	st := mechanismState{
		LT:     m.lt.State(),
		Scores: m.Walk.Raw(),
		Dirty:  m.dirty,
	}
	st.Conv, st.HasConv = m.Walk.LastConvergence()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("eigentrust: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Snapshotter.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("eigentrust: decode state: %w", err)
	}
	if len(st.Scores) != m.cfg.N {
		return fmt.Errorf("eigentrust: state for %d peers, want %d", len(st.Scores), m.cfg.N)
	}
	if err := m.lt.SetState(st.LT); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	m.Walk.Resume(st.Scores, st.Conv, st.HasConv)
	m.dirty = st.Dirty
	return nil
}

var _ reputation.Snapshotter = (*Mechanism)(nil)
