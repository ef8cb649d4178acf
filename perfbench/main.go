// Command perfbench is the repository benchmark: one command that runs a
// named workload on inputs generated from a seed, checks that the outputs are
// correct, and prints every metric by name and unit. See README.md for the
// workloads, the metrics and the layer each metric belongs to.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics of an untraced run; with --trace 1 it carries the
// per-layer metrics of a traced run plus the tracing overhead. The full
// result document (machine context, generated parameters, checks, tails
// with their sample counts) and the traced run's spans are written under
// --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its run; README.md says why each
// one exists.
var workloads = map[string]func(cfg config, r *result) error{
	"long_horizon": runLongHorizon,
	"wide_epoch":   runWideEpoch,
	"serve_mixed":  runServeMixed,
	"cluster_tcp":  runClusterTCP,
}

// config is what every workload receives: the seed its inputs come from,
// the run length that sizes its fixed work, and whether to trace.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	out     string
}

// The metric catalogue: every end-to-end metric must be reported by every
// untraced run, every per-layer metric by every traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"epoch_ms_p50", "ms"},
	{"late_epoch_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"alloc_mb_per_epoch", "MB"},
	{"snapshot_mb", "MB"},
	{"checkpoint_s", "s"},
	{"resume_s", "s"},
}

var perLayer = []metricDef{
	{"workload.round_self_ms", "ms"},
	{"workload.round_self_ms.late", "ms"},
	{"workload.ns_per_interaction", "ns"},
	{"workload.interactions", "count"},
	{"workload.served_frac", "ratio"},
	{"reputation.compute_ms", "ms"},
	{"reputation.submit_ms", "ms"},
	{"reputation.compute_calls", "count"},
	{"reputation.reports", "count"},
	{"reputation.iterations", "count"},
	{"reputation.ns_per_iteration", "ns"},
	{"core.tail_ms", "ms"},
	{"core.tail_ms.late", "ms"},
	{"core.dirty_facets", "count"},
	{"core.settled_users", "count"},
	{"trustnet.snapshot_ms", "ms"},
	{"trustnet.encode_ms", "ms"},
	{"trustnet.decode_ms", "ms"},
	{"trustnet.restore_ms", "ms"},
	{"trustnet.snapshot_bytes", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.mallocs_per_epoch", "count"},
	{"runtime.heap_growth_mb_per_epoch", "MB"},
	{"serve.query_ms.p50", "ms"},
	{"serve.query_ms.p99", "ms"},
	{"serve.scores_ms.p99", "ms"},
	{"serve.top_ms.p99", "ms"},
	{"serve.latest_ms.p99", "ms"},
	{"serve.report_ms.p99", "ms"},
	{"serve.reports_pending.max", "count"},
	{"serve.epochs_per_s", "1/s"},
	{"serve.failed", "count"},
	{"serve.generator_lag_ms.p99", "ms"},
	{"cluster.bytes_out_per_epoch", "bytes"},
	{"cluster.bytes_in_per_epoch", "bytes"},
	{"cluster.frames_per_epoch", "count"},
	{"cluster.resyncs", "count"},
	{"cluster.remote_scatter_chunks", "count"},
	{"cluster.remote_spmv_ranges", "count"},
	{"cluster.connect_ms", "ms"},
	{"cluster.worker_deaths", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

func unitOf(name string) string {
	for _, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is the full result document of one run.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Context     machineContext     `json:"context"`
	Params      any                `json:"params"`
	Metrics     map[string]metric  `json:"metrics"`
	Tails       map[string]tail    `json:"tails,omitempty"`
	Notes       map[string]float64 `json:"notes,omitempty"`
	EpochMs     []float64          `json:"epoch_ms,omitempty"`
	EpochWallMs []float64          `json:"epoch_wall_ms,omitempty"`
	Checks      []check            `json:"checks"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	ErrorFrac   float64            `json:"error_frac"`

	spans []span
}

// set records a metric; a value that is not a finite number is recorded
// as a failed check instead, and the run then lacks the metric.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check("finite "+name, false, fmt.Sprintf("%v", v))
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// note records an informational value of the result document.
func (r *result) note(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Notes[name] = v
	}
}

// zero records, in a traced run, the metrics of a layer the workload does
// not exercise; an untraced run reports no per-layer metrics.
func (r *result) zero(names ...string) {
	if !r.Trace {
		return
	}
	for _, n := range names {
		r.set(n, 0)
	}
}

// check records a correctness check; a failed check is a failed operation.
func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
	r.ops(1, btoi(!ok))
}

// ops counts attempted and failed operations (epochs, requests, checks,
// worker lifetimes).
func (r *result) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 0, "seed every input of the workload is generated from")
	seconds := fs.Int("seconds", 8, "run length that sizes the workload's fixed work")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result documents and spans")
	saturation := fs.Bool("saturation", false, "measure the closed-loop serving rates serve_mixed's rates derive from, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *saturation {
		if err := measureSaturation(config{seed: *seed, seconds: *seconds}, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: saturation: %v\n", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	r := &result{
		Workload: *name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Context: currentContext(cfg.seed),
		Metrics: map[string]metric{},
		Tails:   map[string]tail{},
		Notes:   map[string]float64{},
	}
	if err := runWorkload(cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	emitted := map[string]metric{}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not report %s\n", *name, d.name)
			return 1
		}
		emitted[d.name] = m
	}
	if r.Attempted > 0 {
		r.ErrorFrac = float64(r.Failed) / float64(r.Attempted)
	}
	if err := writeDocs(cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	correct := true
	for _, c := range r.Checks {
		correct = correct && c.OK
	}
	printHuman(stdout, r, want)
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.Attempted, r.Failed, emitted})
	fmt.Fprintln(stdout, string(last))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHuman prints the context, the generated parameters, the checks and
// the metrics, one per line, ahead of the final JSON line. An untraced run
// that measured open-loop latencies (serve_mixed) prints them too, marked
// as not in the result line.
func printHuman(w io.Writer, r *result, defs []metricDef) {
	ctx, _ := json.Marshal(r.Context)
	params, _ := json.Marshal(r.Params)
	fmt.Fprintf(w, "context %s\n", ctx)
	fmt.Fprintf(w, "params %s\n", params)
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %-28s %s\n", c.Name, status)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if !r.Trace {
		for _, p := range pctMetrics {
			if m, ok := r.Metrics[p.name]; ok {
				fmt.Fprintf(w, "%-34s %16.6f %s (not in the result line)\n", p.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%-34s %16.6f ratio (%d failed of %d attempted)\n", "error_frac", r.ErrorFrac, r.Failed, r.Attempted)
}

// writeDocs writes the result document and, for a traced run, its spans.
func writeDocs(cfg config, r *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d-%s", r.Workload, r.Seed, btoi(cfg.trace), time.Now().UTC().Format("20060102T150405"))
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, stem+".json"), doc, 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	spans, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, stem+".spans.json"), spans, 0o644)
}
