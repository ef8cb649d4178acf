package satisfaction

import "fmt"

// ConsumerState is the serializable mutable state of a Consumer. The EMA
// memory is configuration, not state: it is re-established when the owning
// engine is rebuilt from the same scenario settings. Only the overrides of
// the default preference travel, so snapshot size tracks interactions
// rather than population².
type ConsumerState struct {
	// Provider count, shared default, and deviations from it.
	Pop       int
	Def       float64
	Overrides map[int32]float64
	Sat       float64
	Started   bool
	N         int64
}

// State captures the consumer's mutable state.
func (c *Consumer) State() ConsumerState {
	st := ConsumerState{Pop: c.pop, Def: c.def, Sat: c.sat, Started: c.started, N: c.n}
	if len(c.overrides) > 0 {
		st.Overrides = make(map[int32]float64, len(c.overrides))
		for k, v := range c.overrides {
			st.Overrides[k] = v
		}
	}
	return st
}

// SetState restores a previously captured state. The provider count must
// match the consumer's own.
func (c *Consumer) SetState(st ConsumerState) error {
	if st.Pop != c.pop {
		return fmt.Errorf("satisfaction: consumer state for %d providers, want %d", st.Pop, c.pop)
	}
	c.def = st.Def
	c.overrides = nil
	if len(st.Overrides) > 0 {
		c.overrides = make(map[int32]float64, len(st.Overrides))
		for k, v := range st.Overrides {
			c.overrides[k] = v
		}
	}
	c.sat = st.Sat
	c.started = st.Started
	c.n = st.N
	return nil
}

// ProviderState is the serializable mutable state of a Provider.
type ProviderState struct {
	Willingness []float64 // dense form only (nil for sparse providers)
	// Sparse form: consumer count and the shared uniform willingness.
	Pop     int
	Def     float64
	Sat     float64
	Started bool
	N       int64
}

// State captures the provider's mutable state.
func (p *Provider) State() ProviderState {
	st := ProviderState{Sat: p.sat, Started: p.started, N: p.n}
	if p.willingness != nil {
		st.Willingness = append([]float64(nil), p.willingness...)
		return st
	}
	st.Pop = p.pop
	st.Def = p.def
	return st
}

// SetState restores a previously captured state. The representation and the
// consumer count must match the provider's own.
func (p *Provider) SetState(st ProviderState) error {
	if p.willingness != nil {
		if len(st.Willingness) != len(p.willingness) {
			return fmt.Errorf("satisfaction: provider state has %d willingness entries, want %d", len(st.Willingness), len(p.willingness))
		}
		copy(p.willingness, st.Willingness)
	} else {
		if st.Willingness != nil {
			return fmt.Errorf("satisfaction: dense provider state restored into sparse provider")
		}
		if st.Pop != p.pop {
			return fmt.Errorf("satisfaction: provider state for %d consumers, want %d", st.Pop, p.pop)
		}
		p.def = st.Def
	}
	p.sat = st.Sat
	p.started = st.Started
	p.n = st.N
	return nil
}
