// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout. CI uses it to turn the sharded-epoch benchmark into
// BENCH_epoch.json, the sweep benchmark into BENCH_sweep.json, the
// mechanism-kernel benchmark (users × density × kernel × workers axes) into
// BENCH_mechanisms.json, the serving benchmark into BENCH_serving.json, and
// the cluster benchmark (users × topology axes) into BENCH_cluster.json —
// the artifacts that track the perf trajectory across PRs.
//
// Custom benchmark metrics (b.ReportMetric: qps, p50-ns, p99-ns,
// snapshot-bytes, ...) land in each row's "metrics" map; tools/benchdiff
// gates regressions against a committed baseline.
//
// A row printed several times (go test -count N) is folded into one: its
// ns/op and each metric become the median over the repeats, and its
// iterations the total. Speedups are taken between the folded
// medians, so one noisy repeat cannot move a gated number.
//
//	go test -run '^$' -bench BenchmarkShardedEpoch . | go run ./tools/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// benchLine matches e.g.
// BenchmarkShardedEpoch/users=1000/shards=4-8  12  98765432 ns/op  1234 B/op  56 allocs/op
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)

// shardCase extracts the users/shards axes from a sub-benchmark name.
var shardCase = regexp.MustCompile(`users=(\d+)/shards=(\d+)`)

// workerCase extracts a trailing workers= axis (the sweep benchmark's
// parallelism knob); the prefix before it keys the speedup entry.
var workerCase = regexp.MustCompile(`^(.+?)/workers=(\d+)$`)

// topologyCase matches the cluster benchmark's remote-worker rows; each
// pairs with the topology=local sibling of the same case. (workersK, not
// workers-K: a trailing -<digits> would collide with the -GOMAXPROCS
// suffix stripping.)
var topologyCase = regexp.MustCompile(`topology=workers\d+`)

type result struct {
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds the row's custom units (b.ReportMetric) and, under
	// -benchmem, the allocator columns — everything after ns/op.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// repeats collects every printed run of one benchmark row.
type repeats struct {
	iterations int
	ns         []float64
	metrics    map[string][]float64
}

// fold reduces the repeats to one row: median ns/op and per-metric
// medians, total iterations.
func (r *repeats) fold() result {
	res := result{Iterations: r.iterations, NsPerOp: median(r.ns)}
	for unit, vs := range r.metrics {
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics[unit] = median(vs)
	}
	return res
}

// median returns the middle value of vs (the mean of the middle two for an
// even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

type output struct {
	Benchmarks map[string]result `json:"benchmarks"`
	// Speedup is ns/op(parallelism=1) / ns/op(parallelism=K) per case and
	// K > 1, over the shards= (epoch bench) or workers= (sweep and
	// mechanism benches) axis — the headline number the acceptance bar
	// tracks. Cases run at several densities keep the density= token in
	// their key, so each density row gets its own speedup entry.
	//
	// For the mechanism bench, rows whose name differs only in
	// kernel=sparse vs kernel=dense additionally get a
	// "kernel=sparse-vs-dense" entry: ns/op(dense) / ns/op(sparse), the
	// dense-baseline speedup of the sparse kernel.
	//
	// For the cluster bench, rows whose name differs only in
	// topology=workersK vs topology=local get a
	// "topology=local-vs-workersK" entry: ns/op(local) / ns/op(cluster).
	// Values below 1 quantify the transport overhead of distributing the
	// same bit-identical epoch across K worker processes.
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

// customMetrics parses the (value, unit) pairs after the iteration count of
// one benchmark line, skipping ns/op (kept as the row's primary column).
func customMetrics(line string) map[string]float64 {
	fields := strings.Fields(line)
	var metrics map[string]float64
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			continue
		}
		if metrics == nil {
			metrics = map[string]float64{}
		}
		metrics[unit] = v
	}
	return metrics
}

func main() {
	if err := process(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func process(r io.Reader, w io.Writer) error {
	out := output{Benchmarks: map[string]result{}}
	rows := map[string]*repeats{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		rep := rows[m[1]]
		if rep == nil {
			rep = &repeats{}
			rows[m[1]] = rep
		}
		rep.iterations += iters
		rep.ns = append(rep.ns, ns)
		for unit, v := range customMetrics(sc.Text()) {
			if rep.metrics == nil {
				rep.metrics = map[string][]float64{}
			}
			rep.metrics[unit] = append(rep.metrics[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	nsByCase := map[string]map[int]float64{} // case key -> parallelism -> ns/op
	axisByCase := map[string]string{}        // case key -> "shards" | "workers"
	for name, rep := range rows {
		row := rep.fold()
		out.Benchmarks[name] = row
		ns := row.NsPerOp
		if c := shardCase.FindStringSubmatch(name); c != nil {
			shards, _ := strconv.Atoi(c[2])
			key := "users=" + c[1]
			if nsByCase[key] == nil {
				nsByCase[key] = map[int]float64{}
			}
			nsByCase[key][shards] = ns
			axisByCase[key] = "shards"
		} else if c := workerCase.FindStringSubmatch(name); c != nil {
			workers, _ := strconv.Atoi(c[2])
			key := c[1]
			if nsByCase[key] == nil {
				nsByCase[key] = map[int]float64{}
			}
			nsByCase[key][workers] = ns
			axisByCase[key] = "workers"
		}
	}
	for key, byShards := range nsByCase {
		base, ok := byShards[1]
		if !ok || base == 0 {
			continue
		}
		for shards, ns := range byShards {
			if shards == 1 || ns == 0 {
				continue
			}
			if out.Speedup == nil {
				out.Speedup = map[string]float64{}
			}
			out.Speedup[fmt.Sprintf("%s/%s=%d", key, axisByCase[key], shards)] = base / ns
		}
	}
	// Kernel axis: pair each kernel=sparse row with its kernel=dense
	// sibling (same mech/users/density/workers) and report dense/sparse.
	for name, sparse := range out.Benchmarks {
		if !strings.Contains(name, "kernel=sparse") {
			continue
		}
		dense, ok := out.Benchmarks[strings.Replace(name, "kernel=sparse", "kernel=dense", 1)]
		if !ok || sparse.NsPerOp == 0 {
			continue
		}
		if out.Speedup == nil {
			out.Speedup = map[string]float64{}
		}
		out.Speedup[strings.Replace(name, "kernel=sparse", "kernel=sparse-vs-dense", 1)] = dense.NsPerOp / sparse.NsPerOp
	}
	// Mode axis: pair each mode=settled epoch row with its mode=dense
	// sibling (same users/interactions/shards) and report dense/settled —
	// the sub-linear epoch tail's win in the quiescent regime.
	for name, settled := range out.Benchmarks {
		if !strings.Contains(name, "mode=settled") {
			continue
		}
		dense, ok := out.Benchmarks[strings.Replace(name, "mode=settled", "mode=dense", 1)]
		if !ok || settled.NsPerOp == 0 {
			continue
		}
		if out.Speedup == nil {
			out.Speedup = map[string]float64{}
		}
		out.Speedup[strings.Replace(name, "mode=settled", "mode=dense-vs-settled", 1)] = dense.NsPerOp / settled.NsPerOp
	}
	// Topology axis: pair each topology=workers-K row with its
	// topology=local sibling and report local/cluster.
	for name, clustered := range out.Benchmarks {
		tok := topologyCase.FindString(name)
		if tok == "" {
			continue
		}
		local, ok := out.Benchmarks[strings.Replace(name, tok, "topology=local", 1)]
		if !ok || clustered.NsPerOp == 0 {
			continue
		}
		if out.Speedup == nil {
			out.Speedup = map[string]float64{}
		}
		key := strings.Replace(name, tok, "topology=local-vs-"+strings.TrimPrefix(tok, "topology="), 1)
		out.Speedup[key] = local.NsPerOp / clustered.NsPerOp
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
