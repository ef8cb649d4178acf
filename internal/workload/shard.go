package workload

import (
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/sim"
	"repro/internal/social"
)

// The sharded round pipeline.
//
// A round is executed in three phases so that interaction simulation can run
// on K parallel shards while every observable result stays bit-for-bit
// identical for every K:
//
//  1. plan (sequential): the main RNG stream draws each interaction's
//     consumer and splits off a private per-interaction stream. The split
//     sequence depends only on the interaction index, never on shard
//     boundaries.
//  2. scatter (parallel): shards own contiguous chunks of the interaction
//     index range and simulate each interaction — candidate sampling,
//     gating, provider selection, service and rating draws — using only the
//     interaction's private stream and state that is immutable for the
//     round (scores, graph, behaviours, honesty override).
//  3. gather (sequential): results merge into the shared mutable state
//     (transaction ids, satisfaction EMAs, disclosure ledger, gatherer →
//     mechanism) in interaction-index order, so transaction ids, EMA folds
//     and the gatherer's disclosure draws are canonical.

// interactionPlan is one scheduled request: the consumer plus the private
// RNG stream its simulation will consume.
type interactionPlan struct {
	consumer int
	rng      sim.RNG
}

// interactionResult is the outcome of simulating one planned interaction
// against the round-immutable state.
type interactionResult struct {
	consumer int
	provider int // -1 when no provider was found
	// absent marks a request whose scheduled consumer is not present in the
	// network (a left peer): the interaction is dropped entirely.
	absent     bool
	gateFailed bool
	candidates []int
	refused    bool
	quality    float64
	rating     float64
	honest     bool
}

// planRound draws the round's interaction schedule from the main stream.
// Consumers come from the active-peer index when churn has thinned the
// population (nil pool = everyone present = uniform over 0..n, identical
// draws to index-free planning). The Zipf activity path keeps mapping over
// the full id range — its skew is a property of peer identity, so absent
// heavy hitters simply drop their requests in simulate.
func (e *Engine) planRound(pool []int) []interactionPlan {
	plans := make([]interactionPlan, e.cfg.InteractionsPerRound)
	for k := range plans {
		var consumer int
		switch {
		case e.activity != nil:
			consumer = e.activityOrder[e.activity.Next()]
		case len(pool) > 0:
			consumer = pool[e.rng.Intn(len(pool))]
		default:
			consumer = e.rng.Intn(e.cfg.NumPeers)
		}
		plans[k] = interactionPlan{consumer: consumer, rng: *e.rng.Split()}
	}
	return plans
}

// scatter simulates every planned interaction, fanning the index range out
// over the engine's shards — or, when a scatter delegate is installed and
// accepts, handing the whole phase to the external executor (the cluster
// master). The delegate contract (see cluster.go) makes the two paths
// bit-identical.
func (e *Engine) scatter(plans []interactionPlan, scores []float64, gate float64, pool []int, round int) []interactionResult {
	if e.scatterDelegate != nil {
		if out, ok := e.scatterDelegate(exportPlans(plans), scores, gate, pool, round); ok && len(out) == len(plans) {
			results := make([]interactionResult, len(out))
			for k := range out {
				results[k] = importOutcome(&out[k])
			}
			return results
		}
	}
	results := make([]interactionResult, len(plans))
	sim.ForChunks(e.shards, len(plans), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			results[k] = e.simulate(&plans[k], scores, gate, pool, round)
		}
	})
	return results
}

// simulate runs one interaction against round-immutable state. It must not
// touch any state shared across interactions: all randomness comes from the
// plan's private stream, and every mutation is deferred to gather. The round
// index is passed explicitly (rather than read off the engine) so a worker
// replica can simulate the master's round without advancing its own clock.
func (e *Engine) simulate(p *interactionPlan, scores []float64, gate float64, pool []int, round int) interactionResult {
	rng := &p.rng
	r := interactionResult{consumer: p.consumer, provider: -1}
	if !e.PeerActive(p.consumer) {
		r.absent = true
		return r
	}
	candidates := e.sampleCandidates(rng, p.consumer, pool)
	if gate >= 0 {
		eligible := candidates[:0]
		for _, c := range candidates {
			if scores[c] >= gate {
				eligible = append(eligible, c)
			}
		}
		if len(eligible) == 0 {
			r.gateFailed = true
			return r
		}
		candidates = eligible
	}
	r.candidates = candidates
	var provider int
	switch e.cfg.Selection {
	case SelectProportional:
		provider = reputation.SelectProportional(rng, scores, candidates)
	default:
		provider = reputation.SelectBest(rng, scores, candidates)
	}
	if provider < 0 {
		return r
	}
	r.provider = provider
	pu := e.snet.User(provider)
	if !pu.Behavior.Serves(rng) {
		r.refused = true
		r.honest = true
		return r
	}
	r.quality = pu.Behavior.ServiceQuality(rng, round)
	r.rating, r.honest = e.rate(rng, e.snet.User(p.consumer), p.consumer, provider, r.quality)
	return r
}

// gather merges the shard results into the shared state in canonical
// (interaction-index) order.
func (e *Engine) gather(results []interactionResult, st *RoundStats) {
	for k := range results {
		r := &results[k]
		if r.absent {
			continue
		}
		if r.gateFailed {
			e.GateFailures++
			e.consumers[r.consumer].ObserveFailure()
			e.satDirty.Mark(r.consumer)
			continue
		}
		if r.provider < 0 {
			e.consumers[r.consumer].ObserveFailure()
			e.satDirty.Mark(r.consumer)
			continue
		}
		st.Interactions++
		tx := e.snet.NextTxID()
		if e.tap != nil {
			e.tap(r)
		}

		// The provider judges the (possibly imposed) request against its
		// own intentions.
		e.providers[r.provider].Observe(r.consumer)
		e.satDirty.Mark(r.provider)
		e.satDirty.Mark(r.consumer)

		if r.refused {
			st.BadService++
			st.Refused++
			e.recordServed(r.provider, 0)
			e.consumers[r.consumer].ObserveQuality(r.provider, r.candidates, 0)
			e.consumers[r.consumer].UpdatePreference(r.provider, 0)
			e.offerReport(tx, r.consumer, r.provider, 0)
			continue
		}

		// The consumer judges the allocation against its intentions and the
		// quality it actually received.
		e.consumers[r.consumer].ObserveQuality(r.provider, r.candidates, r.quality)
		if r.quality < 0.5 {
			st.BadService++
		}
		e.recordServed(r.provider, r.quality)
		e.consumers[r.consumer].UpdatePreference(r.provider, r.quality)
		if e.ledger != nil {
			// Interacting discloses the consumer's profile to the provider.
			e.ledger.Record(privacy.Disclosure{
				Owner:       r.consumer,
				Item:        e.profileItem[r.consumer],
				Sensitivity: social.Medium,
				Recipient:   r.provider,
				Purpose:     privacy.SocialUse,
				Consented:   true,
			})
		}
		e.offerReport(tx, r.consumer, r.provider, r.rating)
	}
}

// recordServed folds one served (or refused, quality 0) interaction into the
// incremental ground-truth accumulators, sparing facet measurement a full
// log rescan.
func (e *Engine) recordServed(provider int, quality float64) {
	e.servedCount[provider]++
	if e.servedCount[provider] == 1 {
		e.servedStale = true
	}
	e.qualSum[provider] += quality
}
