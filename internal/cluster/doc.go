// Package cluster is the multi-process engine: a master process that owns a
// trustnet Engine and fans its two parallel phases — the round pipeline's
// interaction scatter and the mechanism's inner SpMV — out to worker
// processes over a message transport, then folds the results in canonical
// order.
//
// The subsystem sits entirely behind seams the single-process engine already
// has (workload.ScatterDelegate, reputation.SpMVDelegate), so the engine's
// sequential phases — planning on the main SplitMix64 stream, the gather
// merge, intervention application — are untouched and the distributed run is
// bit-for-bit identical to the local one:
//
//   - Plans carry their private RNG stream state verbatim, so a worker's
//     simulate consumes exactly the draws the local scatter would have.
//   - Workers hold full engine replicas, built from the scenario spec the
//     master streams at handshake and synced by Snapshot/Restore whenever
//     the master's out-of-round mutation generation moves; in-round
//     mechanism feedback is mirrored as report batches, so replica trust
//     matrices stay current without re-snapshotting.
//   - SpMV work is cut along the canonical block decomposition (a function
//     of the matrix dimension only) and folded with linalg.FoldBlocks — the
//     same arithmetic, in the same order, as the local kernel.
//   - Gob preserves float64 bits exactly, and every result is indexed
//     (plan index, block index), so neither worker count nor completion
//     order can perturb a single operation.
//
// The master is authoritative: any worker failure (heartbeat miss, phase
// deadline, decode error) marks the worker dead and its chunk is recomputed
// locally from the same inputs — degraded latency, identical bits. With no
// live workers the delegates decline and the engine transparently runs its
// local parallel path. A rejoining worker is adopted at the next phase
// boundary with a fresh snapshot.
//
// Transports: Loopback (in-process channels carrying the same encoded
// frames, for tests) and TCP (length-prefixed gob). Both run the identical
// protocol; see messages.go for the schema and DESIGN.md for the phase
// walkthrough.
package cluster
