package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/trustnet"
)

// reqKind is what one generated request does.
type reqKind int

const (
	kindScore  reqKind = iota // GET /v1/scores/{user}
	kindTop                   // GET /v1/top?k=10
	kindLatest                // GET /v1/epochs/latest
	kindReport                // POST /v1/reports
)

var kindNames = [...]string{"scores", "top", "latest", "report"}

// request is one generated request, due at an offset from the schedule's
// start.
type request struct {
	kind  reqKind
	due   time.Duration
	user  int // score target, or report rater
	ratee int
	value float64
}

// sample is one request's outcome. lat runs from when the request was due
// to when its response was read, so a stall also counts against the
// requests queued behind it; lag is how late the generator sent it.
type sample struct {
	kind     reqKind
	lat, lag time.Duration
	ok       bool
}

// loadParams describe an open-loop load: reads on one connection and
// report POSTs on another, each at a fixed rate.
type loadParams struct {
	Reads      int     `json:"reads"`
	ReadRate   float64 `json:"read_rate_per_s"`
	Reports    int     `json:"reports"`
	ReportRate float64 `json:"report_rate_per_s"`
}

type load struct {
	params         loadParams
	reads, reports []request
}

// readMix is the share of each read kind: six score lookups to one top-K
// and one latest-epoch query, the mix of the repository's own serving load
// generator (internal/serve/load.go).
var readMix = [...]reqKind{kindScore, kindScore, kindScore, kindScore, kindScore, kindScore, kindTop, kindLatest}

// genLoad generates the request streams from the seed: which reads, which
// users and which reports. Nothing about the streams depends on the
// program under test.
func genLoad(seed uint64, users int, p loadParams) load {
	rng := rand.New(rand.NewPCG(seed, 0x7065726662656e63))
	l := load{params: p}
	// Kinds come in shuffled blocks of readMix, so each kind gets exactly
	// its share of the reads and therefore a known sample count.
	var block [len(readMix)]reqKind
	for i := 0; i < p.Reads; i++ {
		if i%len(block) == 0 {
			block = readMix
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		l.reads = append(l.reads, request{
			kind: block[i%len(block)], due: dueAt(i, p.ReadRate), user: rng.IntN(users),
		})
	}
	for i := 0; i < p.Reports; i++ {
		rater := rng.IntN(users)
		ratee := (rater + 1 + rng.IntN(users-1)) % users
		l.reports = append(l.reports, request{
			kind: kindReport, due: dueAt(i, p.ReportRate),
			user: rater, ratee: ratee, value: float64(rng.IntN(5)) / 4,
		})
	}
	return l
}

// dueAt is when the i-th request of a stream at rate per second is due; a
// stream without a rate is a closed loop, every request due at once.
func dueAt(i int, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(i) / rate * 1e9)
}

// openLoop sends reqs in order, each no earlier than start+due, and records
// every outcome. The clock and the request are parameters so that the
// accounting can be tested without a network.
func openLoop(start time.Time, reqs []request, now func() time.Time, sleep func(time.Duration), do func(request) bool) []sample {
	out := make([]sample, 0, len(reqs))
	for _, req := range reqs {
		due := start.Add(req.due)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		sent := now()
		ok := do(req)
		out = append(out, sample{kind: req.kind, lat: now().Sub(due), lag: max(0, sent.Sub(due)), ok: ok})
	}
	return out
}

// httpRequest builds the HTTP request of a generated request.
func httpRequest(base string, req request) (*http.Request, error) {
	switch req.kind {
	case kindScore:
		return http.NewRequest(http.MethodGet, base+"/v1/scores/"+strconv.Itoa(req.user), nil)
	case kindTop:
		return http.NewRequest(http.MethodGet, base+"/v1/top?k=10", nil)
	case kindLatest:
		return http.NewRequest(http.MethodGet, base+"/v1/epochs/latest", nil)
	}
	body, err := json.Marshal(trustnet.Report{Rater: req.user, Ratee: req.ratee, Value: req.value})
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/reports", bytes.NewReader(body))
	if err == nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	return hr, err
}

func ok2xx(code int) bool { return code >= 200 && code < 300 }

// httpDo returns the request function of one generator: a client with a
// single keep-alive connection to base.
func httpDo(base string) (func(request) bool, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	do := func(req request) bool {
		hr, err := httpRequest(base, req)
		if err != nil {
			return false
		}
		resp, err := client.Do(hr)
		if err != nil {
			return false
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err == nil && ok2xx(resp.StatusCode)
	}
	return do, tr.CloseIdleConnections
}

// loopbackServer serves a handler on 127.0.0.1.
type loopbackServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopbackServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return s, nil
}

func (s *loopbackServer) close() {
	_ = s.srv.Close()
	<-s.done
}

// loadResult is what one load run measured.
type loadResult struct {
	samples    []sample
	pendingMax int
}

// runLoad runs the read and report generators concurrently against base
// until both schedules are done. Until epochs is closed it samples the
// server's report queue, which drains only while epochs advance.
func runLoad(base string, l load, srv *serve.Server, epochs <-chan struct{}) loadResult {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	results := make([][]sample, 2)
	for i, reqs := range [][]request{l.reads, l.reports} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do, closeIdle := httpDo(base)
			defer closeIdle()
			results[i] = openLoop(start, reqs, time.Now, time.Sleep, do)
		}()
	}
	stop := make(chan struct{})
	pending := make(chan int)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		m, sampling := 0, epochs
		for {
			if sampling != nil {
				m = max(m, srv.Stats().ReportsPending)
			}
			select {
			case <-stop:
				pending <- m
				return
			case <-sampling:
				sampling = nil
			case <-tick.C:
			}
		}
	}()
	wg.Wait()
	close(stop)
	return loadResult{samples: append(results[0], results[1]...), pendingMax: <-pending}
}

// latencies are a load run's samples split into the series the metrics
// read, in milliseconds.
type latencies struct {
	reads, lags []float64
	byKind      [len(kindNames)][]float64
	failed      int
}

func split(samples []sample) latencies {
	var l latencies
	for _, s := range samples {
		lat := ms(s.lat)
		l.failed += btoi(!s.ok)
		if s.kind != kindReport {
			l.reads = append(l.reads, lat)
		}
		l.byKind[s.kind] = append(l.byKind[s.kind], lat)
		l.lags = append(l.lags, ms(s.lag))
	}
	return l
}

// pctMetrics are the serving layer's percentile metrics of a load run.
var pctMetrics = []struct {
	name   string
	p      float64
	series func(l *latencies) []float64
}{
	{"serve.query_ms.p50", 50, func(l *latencies) []float64 { return l.reads }},
	{"serve.query_ms.p99", 99, func(l *latencies) []float64 { return l.reads }},
	{"serve.scores_ms.p99", 99, func(l *latencies) []float64 { return l.byKind[kindScore] }},
	{"serve.top_ms.p99", 99, func(l *latencies) []float64 { return l.byKind[kindTop] }},
	{"serve.latest_ms.p99", 99, func(l *latencies) []float64 { return l.byKind[kindLatest] }},
	{"serve.report_ms.p99", 99, func(l *latencies) []float64 { return l.byKind[kindReport] }},
	{"serve.generator_lag_ms.p99", 99, func(l *latencies) []float64 { return l.lags }},
}

// serveLayerMetrics are the serving layer's metrics, zero on workloads
// without a server.
var serveLayerMetrics = func() []string {
	names := []string{"serve.reports_pending.max", "serve.failed"}
	for _, m := range pctMetrics {
		names = append(names, m.name)
	}
	return names
}()

// maxLagP90Ms bounds the generator lag p90 of a valid open-loop run. A
// generator that falls behind its schedule sends most requests late and
// measures a closed loop instead; one held up by short stalls (the lag p99
// of a valid run is 20–90 ms on 2 vCPUs) still sends nine in ten within a
// few milliseconds (2–7 ms p90 on the reference machine).
const maxLagP90Ms = 25

// serveMetrics records the serving layer's metrics of an open-loop run.
// A percentile without ten samples beyond it is a failed check, not a
// number. The tails in the result document carry their sample counts.
func (r *result) serveMetrics(lr loadResult) {
	l := split(lr.samples)
	r.ops(len(lr.samples), l.failed)
	for _, m := range pctMetrics {
		v, err := percentile(m.series(&l), m.p)
		if err != nil {
			r.check("samples "+m.name, false, err.Error())
			continue
		}
		r.set(m.name, v)
	}
	r.set("serve.reports_pending.max", float64(lr.pendingMax))
	r.set("serve.failed", float64(l.failed))
	for k, xs := range l.byKind {
		if t, ok := tailPercentile(xs); ok {
			r.Tails[kindNames[k]+"_ms"] = t
		}
	}
	if t, ok := tailPercentile(l.reads); ok {
		r.Tails["query_ms"] = t
	}
	lag, err := percentile(l.lags, 90)
	detail := ""
	switch {
	case err != nil:
		detail = err.Error()
	case lag > maxLagP90Ms:
		detail = fmt.Sprintf("generator lag p90 %.1f ms exceeds %d ms", lag, maxLagP90Ms)
	}
	r.note("generator_lag_ms_p90", lag)
	r.check("generator_kept_up", detail == "", detail)
}

// servePeers is serve_mixed's population.
const servePeers = 1000

// The open-loop rates of serve_mixed: each is a quarter of the saturation
// rate its connection reached closed-loop on the reference machine while
// the epoch loop advanced back to back (--saturation; 7,850–8,300 reads/s
// and 7,500–8,200 report POSTs/s over three seeds), rounded down.
const (
	readRate   = 2000 // reads/s
	reportRate = 1900 // report POSTs/s
)

// serveParams are the generated inputs of serve_mixed.
type serveParams struct {
	Scenario    trustnet.Scenario `json:"scenario"`
	EpochBudget int               `json:"epoch_budget"`
	Load        loadParams        `json:"load"`
}

// serverRig is an engine hosted by a manual trustnetd server on a loopback
// listener.
type serverRig struct {
	eng  *trustnet.Engine
	mech *timedMechanism
	srv  *serve.Server
	ls   *loopbackServer
}

func startServer(sc trustnet.Scenario, tr *tracer) (*serverRig, error) {
	eng, mech, err := newEngine(sc, tr)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Engine: eng, Manual: true})
	if err != nil {
		return nil, err
	}
	ls, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &serverRig{eng: eng, mech: mech, srv: srv, ls: ls}, nil
}

// runServeMixed hosts the engine in a trustnetd server on a loopback
// listener. An epoch loop advances a fixed epoch budget while the open-loop
// generators send reads and report POSTs at fixed rates below saturation;
// both the budget and the request schedule are fixed, so both commits do
// the same work. The server runs in manual mode and the loop calls Advance
// exactly as the server's own loop does, so each epoch can be timed.
//
// The open-loop latencies are the serving layer's metrics and are not
// gated: on a 2-vCPU machine their tail is set by garbage-collector mark
// phases that hold the spare core, and it moved between 12 and 90 ms
// across identical runs.
func runServeMixed(cfg config, r *result) error {
	sc := benchScenario(cfg.seed, servePeers)
	// The request schedule spans the run's nominal length and starts with
	// the first epoch; the budget is sized so that the epochs last about as
	// long on today's code.
	budget := 7 * cfg.seconds
	reads, reports := int(readRate)*cfg.seconds, int(reportRate)*cfg.seconds
	l := genLoad(cfg.seed, servePeers, loadParams{
		Reads: reads, ReadRate: readRate, Reports: reports, ReportRate: reportRate,
	})
	r.Params = serveParams{Scenario: sc, EpochBudget: budget, Load: l.params}

	var (
		tr  *tracer
		rig *serverRig
	)
	if err := r.setup(func() (err error) {
		if rig != nil {
			rig.ls.close()
		}
		if cfg.trace {
			tr = newTracer()
		}
		rig, err = startServer(sc, tr)
		return err
	}); err != nil {
		return err
	}
	defer rig.ls.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := rig.srv.Start(ctx); err != nil {
		return err
	}

	eng, srv := rig.eng, rig.srv
	d := newEpochLoop(tr)
	// The server's session registers no round observer, so the one set on
	// the workload engine stays in place for the whole run.
	eng.WorkloadEngine().SetRoundObserver(d.onRound)
	d.run.begin()
	epochErr, epochsDone := make(chan error, 1), make(chan struct{})
	go func() {
		defer close(epochsDone)
		epochErr <- d.drive(budget, func() (trustnet.EpochStats, error) { return srv.Advance(1) })
	}()
	lr := runLoad(rig.ls.url, l, srv, epochsDone)
	if err := <-epochErr; err != nil {
		return err
	}
	d.run.end()
	eng.WorkloadEngine().SetRoundObserver(nil)
	r.ops(budget, 0)
	r.epochMetrics(d.run)
	r.serveMetrics(lr)
	if tr != nil {
		r.traceMetrics(d.run, tr.finish(), rig.mech)
	}

	ck, err := takeCheckpoint(srv.SnapshotNow)
	if err != nil {
		return err
	}
	log, err := fetchReportLog(rig.ls.url)
	if err != nil {
		return err
	}
	served := eng.History()
	if _, err := ck.resume(func() (*trustnet.Engine, error) {
		eng, _, err := newEngine(sc, nil)
		return eng, err
	}); err != nil {
		return err
	}
	r.checkpointMetrics(ck)

	// The batch twin replays the applied-report log as ReportWave
	// interventions on an untraced engine; it must reproduce the served
	// history. A traced run also replays it traced: equal histories show
	// that tracing changed no bits, and the two replay times price it.
	twin, twinS, err := replayTwin(sc, budget, log, false)
	if err != nil {
		return err
	}
	r.checkSame("served_equals_batch_twin", served, twin)
	r.zero(clusterMetrics...)
	if cfg.trace {
		traced, tracedS, err := replayTwin(sc, budget, log, true)
		if err != nil {
			return err
		}
		r.checkSame("traced_equals_untraced", traced, twin)
		r.set("trace.overhead_frac", tracedS/twinS-1)
	}
	return nil
}

// measureSaturation finds the rates serve_mixed's rates are a fraction of.
// On the serve_mixed set-up, with the epoch loop advancing back to back,
// the read and report generators each run a closed loop of a fixed number
// of requests on their own connection; each one's rate is its request
// count over the time it took.
func measureSaturation(cfg config, w io.Writer) error {
	sc := benchScenario(cfg.seed, servePeers)
	rig, err := startServer(sc, nil)
	if err != nil {
		return err
	}
	defer rig.ls.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := rig.srv.Start(ctx); err != nil {
		return err
	}
	stop, epochsDone := make(chan struct{}), make(chan struct{})
	epochErr := make(chan error, 1)
	go func() {
		defer close(epochsDone)
		for {
			select {
			case <-stop:
				epochErr <- nil
				return
			default:
			}
			if _, err := rig.srv.Advance(1); err != nil {
				epochErr <- err
				return
			}
		}
	}()
	n := 8000 * cfg.seconds
	lr := runLoad(rig.ls.url, genLoad(cfg.seed, servePeers, loadParams{Reads: n, Reports: n}), rig.srv, epochsDone)
	close(stop)
	if err := <-epochErr; err != nil {
		return err
	}
	var took [len(kindNames)]time.Duration
	var count [len(kindNames)]int
	failed := 0
	for _, s := range lr.samples {
		g := btoi(s.kind == kindReport) * int(kindReport)
		took[g] = max(took[g], s.lat)
		count[g]++
		failed += btoi(!s.ok)
	}
	if failed > 0 {
		return fmt.Errorf("saturation run: %d of %d requests failed", failed, len(lr.samples))
	}
	fmt.Fprintf(w, "read saturation   %.0f/s (%d reads in %v)\n", float64(count[0])/took[0].Seconds(), count[0], took[0])
	fmt.Fprintf(w, "report saturation %.0f/s (%d reports in %v)\n", float64(count[kindReport])/took[kindReport].Seconds(), count[kindReport], took[kindReport])
	return nil
}

// fetchReportLog reads GET /v1/reports/log.
func fetchReportLog(base string) ([]serve.AppliedReport, error) {
	resp, err := http.Get(base + "/v1/reports/log")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/reports/log: %s", resp.Status)
	}
	var body struct {
		Applied []serve.AppliedReport `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode report log: %w", err)
	}
	return body.Applied, nil
}

// replayTwin runs the scenario as a batch session whose schedule submits
// each epoch's applied reports as one ReportWave at that epoch's boundary,
// and returns its history and how long its epochs took at the reference
// speed.
func replayTwin(sc trustnet.Scenario, epochs int, log []serve.AppliedReport, traced bool) ([]trustnet.EpochStats, float64, error) {
	var sched trustnet.Schedule
	for i := 0; i < len(log); {
		j := i
		var wave []trustnet.Report
		for ; j < len(log) && log[j].Epoch == log[i].Epoch; j++ {
			wave = append(wave, trustnet.Report{Rater: log[j].Rater, Ratee: log[j].Ratee, Value: log[j].Value})
		}
		sched = sched.At(log[i].Epoch, trustnet.ReportWave{Reports: wave})
		i = j
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	eng, _, err := newEngine(sc, tr)
	if err != nil {
		return nil, 0, err
	}
	d := newEpochLoop(tr)
	opts := []trustnet.SessionOption{trustnet.WithMaxEpochs(epochs), trustnet.WithSchedule(sched)}
	if traced {
		opts = append(opts, trustnet.OnRound(d.onRound))
	}
	s, err := eng.Session(context.Background(), opts...)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	if err := d.drive(epochs, s.Next); err != nil {
		return nil, 0, err
	}
	return eng.History(), d.run.seconds(), nil
}
