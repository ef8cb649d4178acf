package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/trustnet"
)

// memSample is a point reading of the runtime's allocation counters and
// CPU accounting.
type memSample struct {
	alloc, mallocs  uint64
	gcCPU, totalCPU float64
}

func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return memSample{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCPU: cpu[0].Value.Float64(), totalCPU: cpu[1].Value.Float64()}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// epochRun is what one timed stretch of epochs measured. epochMs are the
// epoch times at the reference speed, units the wall times and reference
// samples they come from.
type epochRun struct {
	epochMs               []float64
	units                 timedUnits
	stats                 []trustnet.EpochStats
	heapStart, heapEnd    uint64
	before, after         memSample
	interactions, refused int
}

// begin marks the start of the run, after a forced collection.
func (run *epochRun) begin() {
	run.heapStart = liveHeap()
	run.before = sampleMem()
}

// seconds is the time the epochs took at the reference speed: the run's
// timed part.
func (run *epochRun) seconds() float64 { return sum(run.epochMs) / 1e3 }

// end reads the allocation counters, then the live heap after another
// forced collection, which thus stays out of the counted interval.
func (run *epochRun) end() {
	run.after = sampleMem()
	run.heapEnd = liveHeap()
}

// epochLoop times epochs from outside: each call of next is one epoch,
// and with a tracer the round observer splits it into round spans and the
// tail after the last round.
type epochLoop struct {
	tr       *tracer
	boundary int64
	run      *epochRun
}

func newEpochLoop(tr *tracer) *epochLoop { return &epochLoop{tr: tr, run: &epochRun{}} }

// onRound is the round observer; it must run on the epoch's goroutine.
func (d *epochLoop) onRound(rs trustnet.RoundStats) {
	d.run.interactions += rs.Interactions
	d.run.refused += rs.Refused
	if d.tr != nil {
		now := d.tr.now()
		d.tr.add(spanRound, d.boundary, now)
		d.boundary = now
	}
}

// drive runs epochs calls of next, timing each one.
func (d *epochLoop) drive(epochs int, next func() (trustnet.EpochStats, error)) error {
	for i := 0; i < epochs; i++ {
		d.run.units.before()
		var t0 int64
		if d.tr != nil {
			d.tr.setEpoch(i)
			t0 = d.tr.now()
			d.boundary = t0
		}
		e0 := time.Now()
		st, err := next()
		ms := float64(time.Since(e0)) / 1e6
		if d.tr != nil {
			end := d.tr.now()
			d.tr.add(spanTail, d.boundary, end)
			d.tr.add(spanNext, t0, end)
		}
		if err != nil {
			return fmt.Errorf("epoch %d: %w", i, err)
		}
		d.run.units.add(ms)
		d.run.stats = append(d.run.stats, st)
	}
	d.run.units.done()
	d.run.epochMs = d.run.units.scaled()
	return nil
}

// epochMetrics records the end-to-end epoch and memory metrics of a run
// and the runtime layer's counters.
func (r *result) epochMetrics(run *epochRun) {
	n := float64(len(run.epochMs))
	alloc := run.after.alloc - run.before.alloc
	mallocs := run.after.mallocs - run.before.mallocs
	r.EpochMs = run.epochMs
	r.set("run_s", run.seconds())
	r.set("epoch_ms_p50", median(run.epochMs))
	r.set("late_epoch_ms", median(lastTenth(run.epochMs)))
	r.set("live_heap_mb", float64(run.heapEnd)/1e6)
	r.set("alloc_mb_per_epoch", float64(alloc)/n/1e6)
	r.set("runtime.gc_cpu_frac", (run.after.gcCPU-run.before.gcCPU)/(run.after.totalCPU-run.before.totalCPU))
	r.set("runtime.mallocs_per_epoch", float64(mallocs)/n)
	r.set("runtime.heap_growth_mb_per_epoch", (float64(run.heapEnd)-float64(run.heapStart))/n/1e6)
	r.set("serve.epochs_per_s", n/run.seconds())
	r.note("epochs", n)
	r.note("first_tenth_epoch_ms", median(firstTenth(run.epochMs)))
	r.note("late_over_first_tenth", median(lastTenth(run.epochMs))/median(firstTenth(run.epochMs)))
	r.note("run_wall_s", sum(run.units.wallMs)/1e3)
	r.note("epoch_ref_ms", median(run.units.refMs))
	r.note("run_cpu_s", sum(run.units.cpuMs)/1e3)
	r.EpochWallMs = run.units.wallMs

	dirty, settled := make([]float64, len(run.stats)), make([]float64, len(run.stats))
	iterations := 0
	for i, st := range run.stats {
		dirty[i], settled[i] = float64(st.DirtyFacets), float64(st.SettledUsers)
		iterations += st.MechIterations
	}
	r.set("core.dirty_facets", median(dirty))
	r.set("core.settled_users", median(settled))
	r.set("reputation.iterations", float64(iterations))
}

// traceMetrics derives the per-layer span metrics of a traced run. mech is
// nil when the mechanism could not be wrapped (the cluster master builds
// its own), in which case the reputation spans are absent and their time
// stays inside the round and tail spans.
func (r *result) traceMetrics(run *epochRun, spans []span, mech *timedMechanism) {
	self := selfTimes(spans)
	n := len(run.epochMs)
	round := perEpoch(spans, self, spanRound, n, true)
	tail := perEpoch(spans, self, spanTail, n, true)
	r.set("workload.round_self_ms", median(round))
	r.set("workload.round_self_ms.late", median(lastTenth(round)))
	r.set("core.tail_ms", median(tail))
	r.set("core.tail_ms.late", median(lastTenth(tail)))
	r.set("workload.interactions", float64(run.interactions))
	r.set("workload.ns_per_interaction", sum(round)*1e6/float64(run.interactions))
	r.set("workload.served_frac", float64(run.interactions-run.refused)/float64(run.interactions))

	calls, computeNs := countSpans(spans, spanCompute)
	r.set("reputation.compute_ms", median(perEpoch(spans, self, spanCompute, n, false)))
	r.set("reputation.submit_ms", median(perEpoch(spans, self, spanSubmit, n, false)))
	r.set("reputation.compute_calls", float64(calls))
	reports := 0.0
	if mech != nil {
		reports = float64(mech.reports)
	}
	r.set("reputation.reports", reports)
	perIter := 0.0
	if it := r.Metrics["reputation.iterations"].Value; it > 0 {
		perIter = float64(computeNs) / it
	}
	r.set("reputation.ns_per_iteration", perIter)
	r.spans = spans
}

// repetition is how often a run repeats a short measurement whose median
// it reports: at least min times and for at least budget, so the shorter
// the measurement, the more samples its median rests on.
type repetition struct {
	min    int
	budget time.Duration
}

var (
	setupReps      = repetition{5, time.Second}
	checkpointReps = repetition{7, 3 * time.Second}
	resumeReps     = repetition{5, 3 * time.Second}
)

// more reports whether a loop that began at start and has run n times
// goes on.
func (rp repetition) more(n int, start time.Time) bool {
	return n < rp.min || time.Since(start) < rp.budget
}

// checkpoint holds the timings of repeated Snapshot+Encode and
// DecodeSnapshot+Restore calls, and the encoded snapshot. The layer times
// are wall times; total and resumed also carry the reference samples that
// scale checkpoint_s and resume_s.
type checkpoint struct {
	snapshotMs, encodeMs, decodeMs, restoreMs []float64
	total, resumed                            timedUnits
	blob                                      []byte
}

// takeCheckpoint snapshots and encodes as checkpointReps says, back to back
// from a collected heap. Each repetition's garbage is collected by whichever
// later repetition's allocation starts the collector, so a repetition's CPU
// time holds zero, one or two collections; their total is steady, which is
// why checkpoint_s is the mean over the repetitions.
func takeCheckpoint(snapshot func() (*trustnet.Snapshot, error)) (*checkpoint, error) {
	c := &checkpoint{}
	runtime.GC()
	for i, start := 0, time.Now(); checkpointReps.more(i, start); i++ {
		c.blob = nil
		c.total.before()
		t0 := time.Now()
		s, err := snapshot()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			return nil, err
		}
		t2 := time.Now()
		c.snapshotMs = append(c.snapshotMs, ms(t1.Sub(t0)))
		c.encodeMs = append(c.encodeMs, ms(t2.Sub(t1)))
		c.total.add(ms(t2.Sub(t0)))
		c.blob = buf.Bytes()
	}
	c.total.done()
	return c, nil
}

// resume decodes the checkpoint and restores it into a freshly built
// engine as resumeReps says, and returns the last restored engine. Building
// the engine is set-up and is not timed.
func (c *checkpoint) resume(build func() (*trustnet.Engine, error)) (*trustnet.Engine, error) {
	var eng *trustnet.Engine
	for i, start := 0, time.Now(); resumeReps.more(i, start); i++ {
		eng = nil
		runtime.GC()
		e, err := build()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		c.resumed.before()
		t0 := time.Now()
		s, err := trustnet.DecodeSnapshot(bytes.NewReader(c.blob))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := e.Restore(s); err != nil {
			return nil, err
		}
		t2 := time.Now()
		c.decodeMs = append(c.decodeMs, ms(t1.Sub(t0)))
		c.restoreMs = append(c.restoreMs, ms(t2.Sub(t1)))
		c.resumed.add(ms(t2.Sub(t0)))
		eng = e
	}
	c.resumed.done()
	return eng, nil
}

func (r *result) checkpointMetrics(c *checkpoint) {
	r.set("snapshot_mb", float64(len(c.blob))/1e6)
	r.set("checkpoint_s", mean(c.total.scaled())/1e3)
	r.set("resume_s", median(c.resumed.scaled())/1e3)
	r.set("trustnet.snapshot_ms", median(c.snapshotMs))
	r.set("trustnet.encode_ms", median(c.encodeMs))
	r.set("trustnet.decode_ms", median(c.decodeMs))
	r.set("trustnet.restore_ms", median(c.restoreMs))
	r.set("trustnet.snapshot_bytes", float64(len(c.blob)))
	r.note("checkpoints", float64(len(c.total.wallMs)))
	r.note("checkpoint_wall_s", mean(c.total.wallMs)/1e3)
	r.note("checkpoint_ref_ms", median(c.total.refMs))
	r.note("resumes", float64(len(c.resumed.wallMs)))
	r.note("resume_wall_s", median(c.resumed.wallMs)/1e3)
	r.note("resume_ref_ms", median(c.resumed.refMs))
}

// sameBits reports whether two histories are bit-for-bit identical: gob
// writes every float64 as its exact bits.
func sameBits(a, b []trustnet.EpochStats) (bool, error) {
	var ba, bb bytes.Buffer
	if err := gob.NewEncoder(&ba).Encode(a); err != nil {
		return false, err
	}
	if err := gob.NewEncoder(&bb).Encode(b); err != nil {
		return false, err
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes()), nil
}

// checkSame records a bit-identity check between two histories.
func (r *result) checkSame(name string, got, want []trustnet.EpochStats) {
	ok, err := sameBits(got, want)
	detail := ""
	switch {
	case err != nil:
		detail = err.Error()
	case !ok:
		detail = fmt.Sprintf("%d epochs vs %d, histories differ", len(got), len(want))
	}
	r.check(name, ok && err == nil, detail)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setup runs build as setupReps says and records the median time it took
// at the reference speed as setup_s; each build replaces the previous one,
// so the last one is the one used.
func (r *result) setup(build func() error) error {
	var u timedUnits
	for start := time.Now(); setupReps.more(len(u.wallMs), start); {
		runtime.GC()
		u.before()
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		u.add(ms(time.Since(t0)))
	}
	u.done()
	r.set("setup_s", median(u.scaled())/1e3)
	r.note("setups", float64(len(u.wallMs)))
	r.note("setup_wall_s", median(u.wallMs)/1e3)
	r.note("setup_ref_ms", median(u.refMs))
	return nil
}
