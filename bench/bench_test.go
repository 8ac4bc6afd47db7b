package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"gaussrange/internal/core"
	"gaussrange/internal/gauss"
	"gaussrange/internal/vecmat"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	points := loadDataset()
	for _, w := range workloads {
		a := newStream(w, 7, points).encode(64)
		if b := newStream(w, 7, points).encode(64); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request streams", w.name)
		}
		if c := newStream(w, 8, points).encode(64); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", w.name)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.99, 99}, // one sample beyond
		{hundred, 1.00, 100},
		{[]float64{3, 5, 9}, 0.50, 5},
		{[]float64{3, 5, 9}, 0.99, 9},
		{[]float64{4}, 0.50, 4},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(tc.sorted), tc.p, got, tc.want)
		}
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i)
	}
	p99 := percentile(thousand, 0.99)
	if beyond := len(thousand) - 1 - slices.Index(thousand, p99); beyond != 10 {
		t.Errorf("p99 of %d samples leaves %d beyond it, want 10", minReadsPerWindow, beyond)
	}
}

func TestMedianOfWindows(t *testing.T) {
	r := &e2eResult{}
	r.add("query_p50_ms", 3000, []float64{4.0, 5.0, 4.4})
	m, ok := r.metric("query_p50_ms")
	if !ok || m.Value != 4.4 || m.Unit != "ms" || m.N != 3000 {
		t.Fatalf("median of windows: got %+v", m)
	}
	if want := (5.0 - 4.0) / 4.4; math.Abs(m.Spread-want) > 1e-12 {
		t.Errorf("spread = %v, want (max−min)/median = %v", m.Spread, want)
	}
	if got := median([]float64{1, 9, 3, 5}); got != 4 {
		t.Errorf("median of an even count = %v, want 4", got)
	}
	// Alternating order: a costs 10 % more than b, the second call of a pair
	// runs 20 % faster than the first.
	a := []float64{110, 88, 110, 88}
	b := []float64{80, 100, 80, 100}
	if got := orderBalancedRatio(a, b); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("orderBalancedRatio = %v, want 1.1", got)
	}
}

func TestSummarizeWindow(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{end: 500 * ms, lat: 9 * ms},               // before the window
		{end: 1100 * ms, lat: 2 * ms},              // read
		{end: 1200 * ms, lat: 4 * ms},              // read
		{end: 1300 * ms, lat: 6 * ms, write: true}, // write
		{end: 1400 * ms, lat: 50 * ms, fail: true}, // failed: no latency figure
		{end: 2000 * ms, lat: 9 * ms},              // at the end bound: next window
	}
	v := summarize(samples, 1000*ms, 2000*ms, 30*ms)
	if v.reads != 2 || v.writes != 1 || v.failed != 1 {
		t.Fatalf("counts: %+v", v)
	}
	if v.qP50 != 2 || v.qP99 != 4 || v.qps != 2 || v.wP50 != 6 || v.wps != 1 {
		t.Errorf("latencies and rates: %+v", v)
	}
	if v.cpuPerOp != 10 {
		t.Errorf("cpu per op = %v, want 30 ms / 3 ops", v.cpuPerOp)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	// Request 0 through the read ladder; request 1 only reached the handler.
	tr.record("client.query", 0, at(0), at(1000))
	tr.record("server.handler", 0, at(2000), at(2700))
	tr.record("db.query", 0, at(3000), at(3650))
	tr.record("core.execute", 0, at(4000), at(4640))
	tr.record("client.query", 1, at(5000), at(5900))
	tr.record("server.handler", 1, at(6000), at(6500))
	// A write whose wal rung has both children.
	tr.record("db.apply_wal", 0, at(7000), at(11000))
	tr.record("db.apply_mem", 0, at(12000), at(12005))
	tr.record("wal.append_sync", 0, at(13000), at(14500))
	tr.link()

	for name, want := range map[string][]float64{
		"client.query":   {300, 400},
		"server.handler": {50}, // request 1 has no db.query under it
		"db.query":       {10},
		"db.apply_wal":   {4000 - 5 - 1500},
	} {
		if got := selfUS(tr.spans, name); !slices.Equal(got, want) {
			t.Errorf("self time of %s = %v µs, want %v", name, got, want)
		}
	}
	if got := durationsUS(tr.spans, "core.execute"); !slices.Equal(got, []float64{640}) {
		t.Errorf("core.execute durations = %v", got)
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Errorf("parents: handler→%d, client→%d", tr.spans[1].Parent, tr.spans[0].Parent)
	}
}

// The oracle skips points past a tail-bound radius; on a subsample small
// enough to brute-force it must agree with core.Engine.BruteForce.
func TestOracleMatchesBruteForce(t *testing.T) {
	all := loadDataset()
	var points [][]float64
	var vecs []vecmat.Vector
	var ids []int64
	for i := 0; i < len(all); i += 50 {
		ids = append(ids, int64(len(points)))
		points = append(points, all[i])
		vecs = append(vecs, all[i])
	}
	idx, err := core.NewIndex(vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(idx, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads[:3] {
		st := newStream(w, 3, points)
		spec := st.spec(0)
		cov, _ := vecmat.FromRows(spec.Cov)
		dist, err := gauss.New(vecmat.Vector(spec.Center), cov)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.BruteForce(core.Query{Dist: dist, Delta: spec.Delta, Theta: spec.Theta})
		if err != nil {
			t.Fatal(err)
		}
		in, maybe, err := oracle(spec, ids, points)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.IDs) == 0 || !agree(want.IDs, in, maybe) {
			t.Errorf("%s shape: brute force finds %d ids, oracle %d (+%d at θ)", w.name, len(want.IDs), len(in), len(maybe))
		}
		if agree(want.IDs[1:], in, maybe) || agree(append([]int64{-1}, want.IDs...), in, maybe) {
			t.Errorf("%s shape: agree accepts a missing or a spurious id", w.name)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke drives the -smoke path of every workload and a two-second traced
// pass, and holds BENCHMARK.json to what they print.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkJSON
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, bench runs %d", len(contract.Workloads), len(workloads))
	}

	ctx := context.Background()
	points := loadDataset()
	cfg := config{seed: 2, seconds: time.Second, smoke: true, out: t.TempDir()}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name || contract.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, bench has %q", i, contract.Workloads[i].Name, w.name)
		}
		r, err := runE2E(ctx, cfg, w, points)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Failed != 0 || r.Attempted != smokeRequests {
			t.Errorf("%s: attempted %d, failed %d", w.name, r.Attempted, r.Failed)
		}
		var listed int
		for _, def := range e2eMetrics {
			m, ok := r.metric(def.name)
			churnOnly := slices.Contains([]string{"write_p50_ms", "write_p99_ms", "write_ops_s", "wal_bytes_per_point"}, def.name)
			if ok == (churnOnly && !w.churn) {
				t.Errorf("%s: metric %s present=%v", w.name, def.name, ok)
			}
			if !def.driver {
				continue
			}
			c := contract.EndToEnd[listed]
			listed++
			if c.Name != def.name || c.Unit != def.unit || c.Better != def.better || c.Bound != def.bound {
				t.Errorf("BENCHMARK.json has %+v, bench defines %+v", c, def)
			}
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, the driver needs it non-zero", w.name, def.name, m.Value)
			}
		}
		if listed != len(contract.EndToEnd) {
			t.Errorf("BENCHMARK.json lists %d end-to-end metrics, bench marks %d for the driver", len(contract.EndToEnd), listed)
		}
	}

	w, _ := findWorkload("churn_mixed")
	cfg.smoke, cfg.seconds = false, 2*time.Second
	layers, err := runLadder(ctx, cfg, w, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers.Metrics) != len(contract.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced pass prints %d", len(contract.PerLayer), len(layers.Metrics))
	}
	for i, m := range layers.Metrics {
		if c := contract.PerLayer[i]; c.Name != m.Name || c.Unit != m.Unit {
			t.Errorf("BENCHMARK.json per-layer %d is %s [%s], the traced pass prints %s [%s]", i, c.Name, c.Unit, m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) {
			t.Errorf("%s is NaN", m.Name)
		}
	}
	if _, err := os.Stat(layers.Trace); err != nil {
		t.Errorf("trace file: %v", err)
	}
}
