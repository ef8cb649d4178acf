// Package satisfaction implements the participant-satisfaction model the
// paper adopts from Quiané-Ruiz, Lamarre & Valduriez (VLDB J. 2009, the
// paper's [17]): participants have intentions; the *adequacy* of one
// allocation measures how well it matched those intentions; *allocation
// satisfaction* is the per-allocation value; and *satisfaction* proper is
// the long-run notion — an exponential moving average that captures whether
// the system "meets its intentions in the long term" (§2.1).
//
// Consumers intend to receive service from the providers they prefer
// (preferences are private, informed by delivered quality); providers intend
// to serve the requests they are willing to treat, even though the system
// may sometimes impose others.
package satisfaction

import (
	"fmt"

	"repro/internal/metrics"
)

// DefaultMemory is the EMA weight used when a zero memory is supplied:
// each new allocation contributes 10% — satisfaction is a long-run notion.
const DefaultMemory = 0.1

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Consumer tracks one data consumer's intentions and satisfaction.
//
// Preferences are stored sparsely: a shared default plus per-provider
// overrides for the providers actually experienced. At population scale
// almost every preference is still the untouched default, so memory stays
// proportional to interactions, not population².
type Consumer struct {
	pop       int     // provider count
	def       float64 // default preference
	overrides map[int32]float64
	sat       float64
	memory    float64 //trustlint:derived EMA weight is configuration, re-established when the engine is rebuilt
	started   bool
	n         int64
}

// NewUniformConsumer creates a consumer whose preference for every one of n
// providers starts at the same value. Deviations from the default accumulate
// sparsely as qualities are observed, so memory stays proportional to the
// providers actually experienced rather than the population. memory in
// (0,1] is the EMA weight (0 selects DefaultMemory).
func NewUniformConsumer(n int, pref, memory float64) (*Consumer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("satisfaction: consumer needs at least one provider preference")
	}
	if memory == 0 {
		memory = DefaultMemory
	}
	if memory < 0 || memory > 1 {
		return nil, fmt.Errorf("satisfaction: memory %v out of (0,1]", memory)
	}
	return &Consumer{pop: n, def: clamp01(pref), memory: memory}, nil
}

// Preference returns the consumer's current preference for a provider.
func (c *Consumer) Preference(provider int) float64 {
	if provider < 0 || provider >= c.pop {
		return 0
	}
	if v, ok := c.overrides[int32(provider)]; ok {
		return v
	}
	return c.def
}

// UpdatePreference folds a delivered quality into the consumer's private
// preference for the provider (quality of results "is a private notion that
// is assumed to be used by a data consumer to decide which providers she
// prefers").
func (c *Consumer) UpdatePreference(provider int, quality float64) {
	if provider < 0 || provider >= c.pop {
		return
	}
	cur := c.def
	if v, ok := c.overrides[int32(provider)]; ok {
		cur = v
	}
	if c.overrides == nil {
		c.overrides = make(map[int32]float64)
	}
	c.overrides[int32(provider)] = (1-c.memory)*cur + c.memory*clamp01(quality)
}

// Adequacy returns how well allocating `chosen` matched the consumer's
// intention given the candidate set: preference of the chosen provider
// relative to the best available preference. It is 0 when chosen is invalid
// or not among the candidates, and 1 when the system picked a most-preferred
// candidate.
func (c *Consumer) Adequacy(chosen int, candidates []int) float64 {
	if chosen < 0 || chosen >= c.pop {
		return 0
	}
	best := 0.0
	inSet := false
	for _, cand := range candidates {
		if cand == chosen {
			inSet = true
		}
		if p := c.Preference(cand); p > best {
			best = p
		}
	}
	if !inSet {
		return 0
	}
	if best == 0 {
		return 1 // indifferent consumer: any allocation is adequate
	}
	return c.Preference(chosen) / best
}

// Observe records one allocation: it computes the allocation satisfaction
// (the per-allocation adequacy), folds it into the long-run satisfaction,
// and returns it.
func (c *Consumer) Observe(chosen int, candidates []int) float64 {
	a := c.Adequacy(chosen, candidates)
	c.fold(a)
	return a
}

// ObserveQuality records one allocation together with the quality the
// chosen provider actually delivered. The allocation satisfaction is
// adequacy × quality: §2.1 requires "a system which both provides results
// of good quality and is also usable accordingly to the user needs" — being
// handed the best of a uniformly bad candidate set is still a bad outcome.
func (c *Consumer) ObserveQuality(chosen int, candidates []int, quality float64) float64 {
	a := c.Adequacy(chosen, candidates) * clamp01(quality)
	c.fold(a)
	return a
}

// ObserveFailure records an allocation round in which the consumer got no
// service at all (adequacy 0).
func (c *Consumer) ObserveFailure() {
	c.fold(0)
}

func (c *Consumer) fold(a float64) {
	if !c.started {
		c.sat = a
		c.started = true
	} else {
		c.sat = (1-c.memory)*c.sat + c.memory*a
	}
	c.n++
}

// Satisfaction returns the long-run satisfaction in [0,1]. A consumer with
// no history is neutrally satisfied (0.5): it has no grounds for judgment.
func (c *Consumer) Satisfaction() float64 {
	if !c.started {
		return 0.5
	}
	return c.sat
}

// Observations returns the number of allocation rounds folded in.
func (c *Consumer) Observations() int64 { return c.n }

// Provider tracks one data provider's intentions and satisfaction. It has a
// dense form (NewProvider: one willingness float per
// consumer) and a sparse uniform form (NewUniformProvider: a shared default;
// willingness is never mutated, so no overrides are needed).
type Provider struct {
	willingness []float64 // dense intention vector (nil in sparse form)
	pop         int       // consumer count in sparse form
	def         float64   // sparse uniform willingness
	sat         float64
	memory      float64 //trustlint:derived EMA weight is configuration, re-established when the engine is rebuilt
	started     bool
	n           int64
}

// NewProvider creates a provider with willingness to serve each consumer.
func NewProvider(willingness []float64, memory float64) (*Provider, error) {
	if len(willingness) == 0 {
		return nil, fmt.Errorf("satisfaction: provider needs at least one consumer willingness")
	}
	if memory == 0 {
		memory = DefaultMemory
	}
	if memory < 0 || memory > 1 {
		return nil, fmt.Errorf("satisfaction: memory %v out of (0,1]", memory)
	}
	p := &Provider{willingness: make([]float64, len(willingness)), memory: memory}
	for i, w := range willingness {
		p.willingness[i] = clamp01(w)
	}
	return p, nil
}

// NewUniformProvider creates a provider equally willing to serve every one
// of n consumers, without materializing a per-consumer vector.
func NewUniformProvider(n int, will, memory float64) (*Provider, error) {
	if n <= 0 {
		return nil, fmt.Errorf("satisfaction: provider needs at least one consumer willingness")
	}
	if memory == 0 {
		memory = DefaultMemory
	}
	if memory < 0 || memory > 1 {
		return nil, fmt.Errorf("satisfaction: memory %v out of (0,1]", memory)
	}
	return &Provider{pop: n, def: clamp01(will), memory: memory}, nil
}

// consumerCount returns the number of consumers the provider has an
// intention over, in either representation.
func (p *Provider) consumerCount() int {
	if p.willingness != nil {
		return len(p.willingness)
	}
	return p.pop
}

// Willingness returns the provider's willingness to serve a consumer.
func (p *Provider) Willingness(consumer int) float64 {
	if consumer < 0 || consumer >= p.consumerCount() {
		return 0
	}
	if p.willingness != nil {
		return p.willingness[consumer]
	}
	return p.def
}

// Observe records that the system allocated a request from `consumer` to
// this provider. The adequacy is the provider's willingness for that
// consumer — "a data provider can be satisfied even if sometimes the system
// imposes queries he does not intend to treat" (§2.1): a single imposed
// (low-willingness) request only dents the long-run EMA.
func (p *Provider) Observe(consumer int) float64 {
	a := p.Willingness(consumer)
	if !p.started {
		p.sat = a
		p.started = true
	} else {
		p.sat = (1-p.memory)*p.sat + p.memory*a
	}
	p.n++
	return a
}

// Satisfaction returns the provider's long-run satisfaction (0.5 when it has
// served nothing).
func (p *Provider) Satisfaction() float64 {
	if !p.started {
		return 0.5
	}
	return p.sat
}

// Observations returns the number of served requests folded in.
func (p *Provider) Observations() int64 { return p.n }

// SystemView aggregates individual satisfactions into the global notion the
// paper distinguishes from the individual one (§3: "a user can have a
// satisfaction perception ... influenced only by its local vision of the
// system, or by a global one").
type SystemView struct {
	// Mean is the global (average) satisfaction.
	Mean float64
	// Min is the worst participant's satisfaction.
	Min float64
	// P10 is the 10th-percentile satisfaction: the system is globally
	// satisfying only if even its least-served decile does acceptably.
	P10 float64
}

// Aggregate computes the system view over participant satisfactions.
// An empty input yields the neutral view (all fields 0.5).
func Aggregate(sats []float64) SystemView {
	if len(sats) == 0 {
		return SystemView{Mean: 0.5, Min: 0.5, P10: 0.5}
	}
	v := SystemView{Mean: metrics.Mean(sats), Min: sats[0], P10: metrics.Quantile(sats, 0.10)}
	for _, s := range sats {
		if s < v.Min {
			v.Min = s
		}
	}
	return v
}
