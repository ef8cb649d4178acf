package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// benchOutput is a condensed real `go test -bench` transcript covering the
// row shapes benchjson understands: the shards axis (epoch bench), the
// workers axis (sweep bench), custom metrics (serving bench), and the
// topology axis (cluster bench).
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkShardedEpoch/users=1000/shards=1-8         	      10	 100000000 ns/op
BenchmarkShardedEpoch/users=1000/shards=4-8         	      40	  25000000 ns/op
BenchmarkServing/users=200/shards=1-8               	    6862	     99410 ns/op	    198732 p50-ns	  13690565 p99-ns	     10071 qps
BenchmarkSweep/grid=5x5/workers=1-8                 	       5	 200000000 ns/op
BenchmarkSweep/grid=5x5/workers=4-8                 	      20	  50000000 ns/op
BenchmarkCluster/users=100/topology=local-8         	      30	  40000000 ns/op
BenchmarkCluster/users=100/topology=workers2        	      24	  50000000 ns/op
BenchmarkShardedEpoch/users=500000/interactions=20000/shards=4/mode=dense-8 	       2	 600000000 ns/op
BenchmarkShardedEpoch/users=500000/interactions=20000/shards=4/mode=settled-8 	      20	  60000000 ns/op
PASS
ok  	repro	2.482s
`

func TestProcess(t *testing.T) {
	var sb strings.Builder
	if err := process(strings.NewReader(benchOutput), &sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Benchmarks map[string]struct {
			Iterations int                `json:"iterations"`
			NsPerOp    float64            `json:"ns_per_op"`
			Metrics    map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
		Speedup map[string]float64 `json:"speedup"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 9 {
		t.Fatalf("parsed %d rows, want 9", len(out.Benchmarks))
	}

	epoch := out.Benchmarks["ShardedEpoch/users=1000/shards=4"]
	if epoch.Iterations != 40 || epoch.NsPerOp != 25000000 {
		t.Fatalf("epoch row = %+v", epoch)
	}
	if got := out.Speedup["users=1000/shards=4"]; got != 4 {
		t.Fatalf("shard speedup = %v, want 4", got)
	}
	if got := out.Speedup["Sweep/grid=5x5/workers=4"]; got != 4 {
		t.Fatalf("worker speedup = %v, want 4", got)
	}
	if got := out.Speedup["Cluster/users=100/topology=local-vs-workers2"]; got != 0.8 {
		t.Fatalf("topology speedup = %v, want 0.8", got)
	}
	if got := out.Speedup["ShardedEpoch/users=500000/interactions=20000/shards=4/mode=dense-vs-settled"]; got != 10 {
		t.Fatalf("mode speedup = %v, want 10", got)
	}

	serving := out.Benchmarks["Serving/users=200/shards=1"]
	want := map[string]float64{"p50-ns": 198732, "p99-ns": 13690565, "qps": 10071}
	for unit, v := range want {
		if serving.Metrics[unit] != v {
			t.Fatalf("metric %s = %v, want %v (row %+v)", unit, serving.Metrics[unit], v, serving)
		}
	}
	if _, ok := serving.Metrics["ns/op"]; ok {
		t.Fatal("ns/op duplicated into the metrics map")
	}

	// Rows without custom metrics must omit the map entirely.
	if epoch.Metrics != nil {
		t.Fatalf("plain row grew metrics: %+v", epoch.Metrics)
	}
}

func TestProcessEmptyInput(t *testing.T) {
	var sb strings.Builder
	if err := process(strings.NewReader("no benchmarks here\n"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"benchmarks": {}`) {
		t.Fatalf("empty input should produce an empty document:\n%s", sb.String())
	}
}

// TestProcessFoldsRepeatedRows checks that a row printed once per repeat
// (go test -count N) folds into one row of medians, and that speedups are
// taken between the folded medians.
func TestProcessFoldsRepeatedRows(t *testing.T) {
	const repeated = `BenchmarkSweep/grid=5x5/workers=1-8   1   300 ns/op   30 B/op   2 allocs/op
BenchmarkSweep/grid=5x5/workers=4-8   1   900 ns/op
BenchmarkSweep/grid=5x5/workers=1-8   1   100 ns/op   10 B/op   2 allocs/op
BenchmarkSweep/grid=5x5/workers=4-8   1    50 ns/op
BenchmarkSweep/grid=5x5/workers=1-8   1   200 ns/op   20 B/op   2 allocs/op
BenchmarkSweep/grid=5x5/workers=4-8   1    40 ns/op
BenchmarkSweep/grid=5x5/workers=4-8   1    60 ns/op
`
	var sb strings.Builder
	if err := process(strings.NewReader(repeated), &sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Benchmarks map[string]struct {
			Iterations int                `json:"iterations"`
			NsPerOp    float64            `json:"ns_per_op"`
			Metrics    map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
		Speedup map[string]float64 `json:"speedup"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("parsed %d rows, want 2", len(out.Benchmarks))
	}
	serial := out.Benchmarks["Sweep/grid=5x5/workers=1"]
	if serial.NsPerOp != 200 || serial.Iterations != 3 {
		t.Fatalf("odd repeats: row %+v, want median 200 ns/op over 3 iterations", serial)
	}
	if serial.Metrics["B/op"] != 20 || serial.Metrics["allocs/op"] != 2 {
		t.Fatalf("metric medians = %+v, want B/op 20, allocs/op 2", serial.Metrics)
	}
	// Even count: the mean of the middle two, so the 900 ns outlier drops.
	if parallel := out.Benchmarks["Sweep/grid=5x5/workers=4"]; parallel.NsPerOp != 55 || parallel.Iterations != 4 {
		t.Fatalf("even repeats: row %+v, want median 55 ns/op over 4 iterations", parallel)
	}
	if got := out.Speedup["Sweep/grid=5x5/workers=4"]; got != 200.0/55 {
		t.Fatalf("speedup = %v, want the median ratio %v", got, 200.0/55)
	}
}
