package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"repro/internal/reputation"
	"repro/trustnet"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, err := percentile(xs, 99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}

	for _, tc := range []struct {
		n   int
		pct float64
		ok  bool
	}{
		{5, 0, false}, {19, 0, false}, {20, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(xs100k[:tc.n])
		if ok != tc.ok || (ok && (got.Pct != tc.pct || got.N != tc.n)) {
			t.Errorf("tailPercentile(%d samples) = %+v, %v; want p%g", tc.n, got, ok, tc.pct)
		}
	}
}

var xs100k = func() []float64 {
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}()

func TestMedianAndTenths(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	xs := make([]float64, 45)
	for i := range xs {
		xs[i] = float64(i)
	}
	long := make([]float64, 120)
	for i := range long {
		long[i] = float64(i)
	}
	if got := lastTenth(long); len(got) != 12 || got[0] != 108 {
		t.Fatalf("lastTenth of 120 = %v, want the last 12", got)
	}
	if got := lastTenth(xs); len(got) != lateMin || got[0] != 45-lateMin {
		t.Fatalf("lastTenth of 45 = %v, want at least the last %d", got, lateMin)
	}
	if got := lastTenth(xs[:6]); len(got) != 6 {
		t.Fatalf("lastTenth of 6 = %v, want all 6", got)
	}
	if got := firstTenth(xs); len(got) != 4 || got[3] != 3 {
		t.Fatalf("firstTenth of 45 = %v, want the first 4", got)
	}
	if got := firstTenth(xs[:12]); len(got) != 3 || got[2] != 2 {
		t.Fatalf("firstTenth of 12 = %v, want at least the first 3", got)
	}
}

func TestScaleToReference(t *testing.T) {
	// Twelve units of 10 ms wall time between thirteen reference samples.
	// The host runs at the reference speed until sample 6 and at half of
	// it from there on; sample 2 is a one-off spike.
	wall := make([]float64, 12)
	ref := make([]float64, 13)
	for i := range wall {
		wall[i] = 10
	}
	for i := range ref {
		ref[i] = refNominalMs
		if i >= 6 {
			ref[i] = 2 * refNominalMs
		}
	}
	ref[2] = 10 * refNominalMs
	got := scaleToReference(wall, ref)
	if got[0] != 10 || got[1] != 10 {
		t.Fatalf("units at the reference speed scaled to %v, want 10 (the spike is outvoted)", got[:2])
	}
	if got[11] != 5 || got[10] != 5 {
		t.Fatalf("units at half speed scaled to %v, want 5", got[10:])
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Fatalf("scaled times %v rise although the host only slows down", got)
		}
	}
}

func TestTimedUnitsPairSamplesWithUnits(t *testing.T) {
	var u timedUnits
	for i := 0; i < 3; i++ {
		u.before()
		u.add(float64(i + 1))
	}
	u.done()
	if len(u.refMs) != 4 || len(u.wallMs) != 3 || len(u.cpuMs) != 3 {
		t.Fatalf("%d reference samples, %d wall and %d CPU times; want 4, 3 and 3", len(u.refMs), len(u.wallMs), len(u.cpuMs))
	}
	for i, r := range u.refMs {
		if !(r > 0) {
			t.Fatalf("reference sample %d took %v ms of thread CPU time, want > 0", i, r)
		}
	}
	if got := u.scaled(); len(got) != 3 {
		t.Fatalf("scaled %d units, want 3", len(got))
	}
}

func TestSpanSelfTime(t *testing.T) {
	// One epoch [0,100]: round 1 [0,40] holds a compute [10,20] and a
	// submit [15,30] that overlaps it; round 2 [40,70] holds nothing; the
	// tail [70,100] holds the barrier compute [80,95]. Spans arrive in the
	// order they close, children first.
	spans := []span{
		{Name: spanCompute, Start: 10, End: 20},
		{Name: spanSubmit, Start: 15, End: 30},
		{Name: spanRound, Start: 0, End: 40},
		{Name: spanRound, Start: 40, End: 70},
		{Name: spanCompute, Start: 80, End: 95},
		{Name: spanTail, Start: 70, End: 100},
		{Name: spanNext, Start: 0, End: 100},
	}
	nest(spans)
	wantParent := []int{2, 2, 6, 6, 5, 6, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	wantSelf := []int64{10, 15, 20, 30, 15, 15, 0}
	for i := range spans {
		if self[i] != wantSelf[i] {
			t.Errorf("span %d (%s) self = %d, want %d", i, spans[i].Name, self[i], wantSelf[i])
		}
	}
	if got := perEpoch(spans, self, spanRound, 1, true); math.Abs(got[0]-50e-6) > 1e-15 {
		t.Errorf("round self per epoch = %v ms, want 50ns", got[0])
	}
	if n, total := countSpans(spans, spanCompute); n != 2 || total != 25 {
		t.Errorf("countSpans(compute) = %d, %d; want 2, 25", n, total)
	}
}

// fakeClock is a clock that moves only when slept on or when a request
// takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) spend(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	start := c.t
	// The second request stalls for 35ms, so the third and fourth are sent
	// late and their latency counts the wait; the fifth is due late enough
	// to be back on schedule.
	var reqs []request
	for _, due := range []time.Duration{0, 10, 20, 30, 50} {
		reqs = append(reqs, request{kind: kindScore, due: due * time.Millisecond})
	}
	cost := []time.Duration{2, 35, 1, 1, 1}
	i := 0
	out := openLoop(start, reqs, c.now, c.sleep, func(request) bool {
		c.spend(cost[i] * time.Millisecond)
		i++
		return i != 4
	})
	want := []struct{ lat, lag time.Duration }{
		{2, 0}, {35, 0}, {26, 25}, {17, 16}, {1, 0},
	}
	for k, s := range out {
		if s.lat != want[k].lat*time.Millisecond || s.lag != want[k].lag*time.Millisecond {
			t.Errorf("request %d: lat %v lag %v, want %v %v", k, s.lat, s.lag, want[k].lat*time.Millisecond, want[k].lag*time.Millisecond)
		}
	}
	if out[3].ok || !out[2].ok {
		t.Errorf("ok flags = %v %v, want true false", out[2].ok, out[3].ok)
	}
}

func TestGenLoadIsSeededAndBalanced(t *testing.T) {
	p := loadParams{Reads: 400, ReadRate: 100, Reports: 50, ReportRate: 25}
	a, b := genLoad(7, 40, p), genLoad(7, 40, p)
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			t.Fatalf("read %d differs between equal seeds", i)
		}
	}
	kinds := map[reqKind]int{}
	for _, r := range a.reads {
		kinds[r.kind]++
	}
	if kinds[kindScore] != 300 || kinds[kindTop] != 50 || kinds[kindLatest] != 50 {
		t.Fatalf("read kinds %v, want 300 score, 50 top and 50 latest (6:1:1)", kinds)
	}
	if a.reads[399].due != 3990*time.Millisecond {
		t.Fatalf("last read due %v, want 3.99s", a.reads[399].due)
	}
	if a.reports[49].due != 1960*time.Millisecond {
		t.Fatalf("last report due %v, want 1.96s", a.reports[49].due)
	}
	closed := genLoad(7, 40, loadParams{Reads: 8, Reports: 8})
	for _, r := range append(closed.reads, closed.reports...) {
		if r.due != 0 {
			t.Fatalf("a stream without a rate is a closed loop; request due at %v", r.due)
		}
	}
	for _, r := range a.reports {
		if r.user == r.ratee || r.user < 0 || r.user >= 40 || r.ratee < 0 || r.ratee >= 40 || r.value < 0 || r.value > 1 {
			t.Fatalf("invalid report %+v", r)
		}
	}
	if c := genLoad(8, 40, p); c.reads[0] == a.reads[0] && c.reads[1] == a.reads[1] && c.reads[2] == a.reads[2] {
		t.Fatal("different seeds generated the same reads")
	}
}

func TestGeneratorLagCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		lag  func(i int) time.Duration
		ok   bool
	}{
		// Short stalls: 5% of requests sent up to 80ms late.
		{"stalls", func(i int) time.Duration { return time.Duration(i%20/19) * 80 * time.Millisecond }, true},
		// Fallen behind: every request later than the one before.
		{"behind", func(i int) time.Duration { return time.Duration(i) * time.Millisecond }, false},
	} {
		var lr loadResult
		// Enough reads that each kind's p99 has ten samples beyond it.
		for i := 0; i < 16000; i++ {
			kind := readMix[i/2%len(readMix)]
			if i%2 == 1 {
				kind = kindReport
			}
			lr.samples = append(lr.samples, sample{kind: kind, lat: tc.lag(i) + time.Millisecond, lag: tc.lag(i), ok: true})
		}
		r := &result{Metrics: map[string]metric{}, Tails: map[string]tail{}, Notes: map[string]float64{}}
		r.serveMetrics(lr)
		var kept *check
		for i := range r.Checks {
			if r.Checks[i].Name == "generator_kept_up" {
				kept = &r.Checks[i]
			}
		}
		if kept == nil || kept.OK != tc.ok {
			t.Errorf("%s: generator_kept_up = %+v, want ok=%v", tc.name, kept, tc.ok)
		}
		if r.Failed != btoi(!tc.ok) {
			t.Errorf("%s: %d failed operations, want %d", tc.name, r.Failed, btoi(!tc.ok))
		}
	}
}

// frames builds a length-prefixed stream of frames with the given sizes.
func frames(sizes ...int) []byte {
	var buf bytes.Buffer
	for _, n := range sizes {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n))
		buf.Write(hdr[:])
		buf.Write(bytes.Repeat([]byte{0xab}, n))
	}
	return buf.Bytes()
}

func TestFrameCounterAnyChunking(t *testing.T) {
	stream := frames(0, 1, 3, 4, 5, 300, 70000, 2)
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		var c frameCounter
		for rest := stream; len(rest) > 0; {
			k := min(len(rest), 1+rng.IntN(9000))
			if trial == 0 {
				k = 1 // byte at a time
			}
			c.Write(rest[:k])
			rest = rest[k:]
		}
		if c.frames.Load() != 8 || c.bytes.Load() != int64(len(stream)) {
			t.Fatalf("trial %d: %d frames, %d bytes; want 8, %d", trial, c.frames.Load(), c.bytes.Load(), len(stream))
		}
	}
}

func TestRelayCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	toWorker, toMaster := frames(10, 20, 30), frames(7)
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		got := make([]byte, len(toMaster))
		if _, err := io.ReadFull(c, got); err != nil {
			served <- err
			return
		}
		_, err = c.Write(toWorker)
		served <- err
	}()
	rl, err := startRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", rl.addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(toMaster); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(toWorker))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	c.Close()
	rl.close()
	if rl.toWorker.frames.Load() != 3 || rl.toWorker.bytes.Load() != int64(len(toWorker)) {
		t.Errorf("to worker: %d frames, %d bytes; want 3, %d", rl.toWorker.frames.Load(), rl.toWorker.bytes.Load(), len(toWorker))
	}
	if rl.toMaster.frames.Load() != 1 || rl.toMaster.bytes.Load() != int64(len(toMaster)) {
		t.Errorf("to master: %d frames, %d bytes; want 1, %d", rl.toMaster.frames.Load(), rl.toMaster.bytes.Load(), len(toMaster))
	}
}

func TestTimedMechanismKeepsOptionalInterfaces(t *testing.T) {
	sc := benchScenario(1, 50)
	m, err := newTimedMechanism(sc, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	var mech trustnet.Mechanism = m
	checks := map[string]bool{}
	_, checks["BatchSubmitter"] = mech.(reputation.BatchSubmitter)
	_, checks["ScoresViewer"] = mech.(reputation.ScoresViewer)
	_, checks["ComputeSharder"] = mech.(reputation.ComputeSharder)
	_, checks["ConvergenceReporter"] = mech.(reputation.ConvergenceReporter)
	_, checks["CommunityAssessor"] = mech.(reputation.CommunityAssessor)
	_, checks["Snapshotter"] = mech.(reputation.Snapshotter)
	_, checks["SpMVDelegator"] = mech.(reputation.SpMVDelegator)
	_, checks["BlockScatterer"] = mech.(reputation.BlockScatterer)
	_, checks["Whitewasher"] = mech.(reputation.Whitewasher)
	for name, ok := range checks {
		if !ok {
			t.Errorf("the timed mechanism does not implement reputation.%s", name)
		}
	}
}

func TestTracedEngineMatchesUntraced(t *testing.T) {
	sc := benchScenario(3, 60)
	tr := newTracer()
	traced, mech, err := newEngine(sc, tr)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := newEngine(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newEpochLoop(tr)
	s, err := traced.Session(context.Background(), trustnet.WithMaxEpochs(3), trustnet.OnRound(d.onRound))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.drive(3, s.Next); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if ok, err := sameBits(traced.History(), plain.History()); err != nil || !ok {
		t.Fatalf("traced history differs from untraced (%v)", err)
	}
	spans := tr.finish()
	if n, _ := countSpans(spans, spanRound); n != 3*sc.EpochRounds {
		t.Errorf("%d round spans, want %d", n, 3*sc.EpochRounds)
	}
	if n, _ := countSpans(spans, spanCompute); n == 0 || mech.reports == 0 {
		t.Errorf("%d compute spans and %d reports; want both nonzero", n, mech.reports)
	}
	for _, s := range spans {
		if s.Name == spanCompute && s.Parent < 0 {
			t.Errorf("compute span %+v has no enclosing round or tail", s)
		}
	}
}
