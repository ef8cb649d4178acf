package workload

import (
	"repro/internal/reputation"
	"repro/internal/sim"
)

// The cluster seam: the scatter phase of the round pipeline can be executed
// by an external executor — the master/worker cluster layer — because it
// reads only round-immutable state (scores, graph, behaviours, membership,
// honesty override) plus each plan's private RNG stream, and every mutation
// is deferred to the sequential gather. The wire types below carry exactly
// that: a plan is (consumer, RNG state), an outcome is everything gather
// needs. The engine's own round pipeline uses the same two types, so
// nothing is converted on the way out or back. A worker holding a replica
// of the engine synced to the same mutation generation produces bit-for-bit
// the outcomes the local scatter would have, so delegation never perturbs
// results.

// PlannedInteraction is the wire form of one scheduled interaction: the
// consumer plus the exact state of the private stream its simulation will
// consume. Copying the stream state (rather than re-deriving it) is what
// keeps remote simulation bit-identical to local.
type PlannedInteraction struct {
	Consumer int
	RNG      sim.RNGState
}

// InteractionOutcome is the result of simulating one planned interaction
// against the round-immutable state, and its wire form.
type InteractionOutcome struct {
	Consumer int
	Provider int // -1 when no provider was found
	// Absent marks a request whose scheduled consumer is not present in the
	// network (a left peer): the interaction is dropped entirely.
	Absent     bool
	GateFailed bool
	Candidates []int
	Refused    bool
	Quality    float64
	Rating     float64
	Honest     bool
}

// ScatterDelegate executes a round's scatter phase externally. It receives
// the full plan list and the round-scoped inputs (scores, gate, active pool,
// round index) and returns one outcome per plan, in plan order. It returns
// ok=false to decline — no workers registered, say — in which case the
// engine scatters locally. A delegate MUST be bit-exact: outcomes must be
// exactly what SimulateChunk on an in-sync replica produces.
type ScatterDelegate func(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) (outcomes []InteractionOutcome, ok bool)

// SetScatterDelegate installs (or, with nil, removes) the external scatter
// executor.
func (e *Engine) SetScatterDelegate(fn ScatterDelegate) { e.scatterDelegate = fn }

// SetReportObserver installs (or, with nil, removes) a callback that sees
// every report batch the engine delivers to its mechanism (round flushes and
// external submissions alike, after the mechanism accepted them). The cluster
// master uses it to mirror mechanism feedback onto worker replicas. The
// callback must not retain the slice and must not mutate the engine.
func (e *Engine) SetReportObserver(fn func([]reputation.Report)) { e.reportObserver = fn }

// MutationGen returns the engine's mutation generation: a counter bumped by
// every out-of-round mutation of simulate-visible state (membership,
// behaviour classes, honesty overrides, whitewashes, state restores). A
// replica synced at generation g needs a fresh snapshot iff the master's
// generation has moved past g; report flow is mirrored separately via the
// report observer and does not bump the generation.
func (e *Engine) MutationGen() uint64 { return e.mutationGen }

// NoteMutation records an out-of-round mutation of simulate-visible state
// performed outside the engine's own setters (e.g. a whitewash resetting
// mechanism rows through the facade).
func (e *Engine) NoteMutation() { e.mutationGen++ }

// SimulateChunk simulates a contiguous chunk of a round's plans against the
// engine's current state, fanning it over the engine's shards. It is the
// local scatter phase, the worker-side half of a delegated scatter, and the
// master's local fallback for a chunk whose worker died; it reads only
// round-immutable state, so outcomes are bit-identical wherever the chunk
// runs.
func (e *Engine) SimulateChunk(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) []InteractionOutcome {
	out := make([]InteractionOutcome, len(plans))
	sim.ForChunks(e.shards, len(plans), func(lo, hi int) {
		var rng sim.RNG // one stream buffer per chunk, reset from each plan
		for k := lo; k < hi; k++ {
			rng.SetState(plans[k].RNG)
			out[k] = e.simulate(&rng, plans[k].Consumer, scores, gate, pool, round)
		}
	})
	return out
}
