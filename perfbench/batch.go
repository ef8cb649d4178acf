package main

import (
	"context"
	"math"
	"runtime"

	"repro/trustnet"
)

// benchScenario is the baseline scenario's shape (coupled EigenTrust, the
// serving mix) at the given population, seeded from the workload seed.
func benchScenario(seed uint64, peers int) trustnet.Scenario {
	sc := trustnet.MustScenario("baseline")
	sc.Peers = peers
	sc.Seed = seed
	return sc
}

// batchParams are the generated inputs of a batch workload.
type batchParams struct {
	Scenario trustnet.Scenario `json:"scenario"`
	Epochs   int               `json:"epochs"`
}

// runLongHorizon: about 1k peers, stationary, for enough epochs that the
// last tenth of epochs costs several times the first tenth on a ledger that
// keeps every event. The epoch count grows with the square root of the run
// length because epoch cost grows with the epoch index.
func runLongHorizon(cfg config, r *result) error {
	return runBatch(cfg, r, 1000, int(math.Round(20*math.Sqrt(float64(cfg.seconds)))))
}

// runWideEpoch: about 10k peers for a handful of epochs, so the
// per-interaction path and the SpMV kernel dominate and history stays
// short.
func runWideEpoch(cfg config, r *result) error {
	return runBatch(cfg, r, 10000, max(3, int(math.Round(0.75*float64(cfg.seconds)))))
}

// runBatch drives one engine through a session: set-up, the timed epochs,
// a checkpoint, and the restore-then-run check. A traced run adds spans,
// then repeats the epochs untraced to check that observing changed no bits
// and to price tracing.
func runBatch(cfg config, r *result, peers, epochs int) error {
	sc := benchScenario(cfg.seed, peers)
	r.Params = batchParams{Scenario: sc, Epochs: epochs}
	ctx := context.Background()

	var (
		tr   *tracer
		eng  *trustnet.Engine
		mech *timedMechanism
	)
	if err := r.setup(func() (err error) {
		if cfg.trace {
			tr = newTracer()
		}
		eng, mech, err = newEngine(sc, tr)
		return err
	}); err != nil {
		return err
	}

	d := newEpochLoop(tr)
	opts := []trustnet.SessionOption{trustnet.WithMaxEpochs(epochs + 1)}
	if tr != nil {
		opts = append(opts, trustnet.OnRound(d.onRound))
	}
	s, err := eng.Session(ctx, opts...)
	if err != nil {
		return err
	}
	d.run.begin()
	if err := d.drive(epochs, s.Next); err != nil {
		return err
	}
	d.run.end()
	r.ops(epochs, 0)
	r.epochMetrics(d.run)
	if tr != nil {
		r.traceMetrics(d.run, tr.finish(), mech)
	}

	ck, err := takeCheckpoint(eng.Snapshot)
	if err != nil {
		return err
	}
	next, err := s.Next()
	if err != nil {
		return err
	}
	hist := eng.History()[:epochs]

	fresh, err := ck.resume(func() (*trustnet.Engine, error) {
		eng, _, err := newEngine(sc, nil)
		return eng, err
	})
	if err != nil {
		return err
	}
	r.checkpointMetrics(ck)
	resumed, err := fresh.Run(ctx, 1)
	if err != nil {
		return err
	}
	r.checkSame("restore_then_run", resumed[len(resumed)-1:], []trustnet.EpochStats{next})

	r.zero(clusterMetrics...)
	r.zero(serveLayerMetrics...)
	if cfg.trace {
		return untracedTwin(r, sc, epochs, d.run.seconds(), hist)
	}
	return nil
}

// untracedTwin repeats the run's epochs on an untraced engine: its history
// must equal the traced one bit for bit, and the run-time ratio is the
// tracing overhead.
func untracedTwin(r *result, sc trustnet.Scenario, epochs int, tracedS float64, traced []trustnet.EpochStats) error {
	runtime.GC()
	eng, _, err := newEngine(sc, nil)
	if err != nil {
		return err
	}
	s, err := eng.Session(context.Background(), trustnet.WithMaxEpochs(epochs))
	if err != nil {
		return err
	}
	d := newEpochLoop(nil)
	d.run.begin()
	if err := d.drive(epochs, s.Next); err != nil {
		return err
	}
	r.checkSame("traced_equals_untraced", traced, eng.History())
	r.set("trace.overhead_frac", tracedS/d.run.seconds()-1)
	return nil
}

// clusterMetrics are the cluster layer's metrics, zero on workloads without
// a cluster.
var clusterMetrics = []string{
	"cluster.bytes_out_per_epoch", "cluster.bytes_in_per_epoch", "cluster.frames_per_epoch",
	"cluster.resyncs", "cluster.remote_scatter_chunks", "cluster.remote_spmv_ranges",
	"cluster.connect_ms", "cluster.worker_deaths",
}
