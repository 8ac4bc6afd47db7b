// Command bench is the repository's benchmark: four closed-loop serving
// workloads measured end to end over loopback HTTP, and a traced pass that
// attributes a request to the layers below it. BENCHMARK.json at the repo
// root names the command, the workloads and the metrics; README.md in this
// directory defines them.
//
//	go run ./bench -seed 1                 every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1        every workload, per-layer metrics + trace-<workload>.jsonl
//	go run ./bench -seed 1 -aa             the untraced suite twice, gated on each metric's bound
//	go run ./bench -workload paper_read -seed 7 -seconds 24 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed uint64
	// seconds is the measured time of one workload: `windows` equal windows
	// untraced, and eight rung budgets in the traced pass.
	seconds time.Duration
	smoke   bool
	out     string
}

// checks is how many answers each answer check compares.
func (c config) checks() int {
	if c.smoke {
		return smokeChecks
	}
	return checkQueries
}

// warmup is the discarded head of the closed loop.
func (c config) warmup() time.Duration { return c.seconds / 12 }

// header describes the run; it is printed first and leads the -json file.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
}

// report is what -json writes: everything the run printed.
type report struct {
	Header header         `json:"header"`
	E2E    []*e2eResult   `json:"end_to_end,omitempty"`
	Layers []*layerResult `json:"per_layer,omitempty"`
}

// resultLine is the last line a workload prints, for the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printResultLine(attempted, failed int, metrics []measurement, keep func(string) bool) error {
	line := resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]resultValue)}
	for _, m := range metrics {
		if keep(m.Name) {
			line.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	out, err := json.Marshal(line) // fails on a NaN: a metric with no samples
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Println(string(out))
	return nil
}

func printE2E(r *e2eResult) error {
	for _, m := range r.Metrics {
		fmt.Printf("%-12s %-20s %12.4f %-5s n=%-7d spread=%.3f\n", r.Workload, m.Name, m.Value, m.Unit, m.N, m.Spread)
	}
	if r.Folds > 0 {
		fmt.Printf("%-12s %d overlay fold(s) inside the measured windows\n", r.Workload, r.Folds)
	}
	return printResultLine(r.Attempted, r.Failed, r.Metrics, func(name string) bool { return metricNamed(name).driver })
}

func printLayers(r *layerResult) error {
	var overhead float64
	for _, m := range r.Metrics {
		fmt.Printf("%-12s %-32s %14.4f %s\n", r.Workload, m.Name, m.Value, m.Unit)
		if m.Name == "trace.overhead_ratio" {
			overhead = m.Value
		}
	}
	if overhead > 1.02 {
		fmt.Fprintf(os.Stderr, "bench: %s: trace.overhead_ratio %.4f is above 1.02\n", r.Workload, overhead)
	}
	return printResultLine(r.Calls, 0, r.Metrics, func(string) bool { return true })
}

// suite runs the selected workloads once, untraced or traced.
func suite(ctx context.Context, cfg config, selected []workload, traced bool, points [][]float64, rep *report) error {
	for _, w := range selected {
		if traced {
			r, err := runLadder(ctx, cfg, w, points)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := printLayers(r); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Layers = append(rep.Layers, r)
			continue
		}
		r, err := runE2E(ctx, cfg, w, points)
		if err != nil {
			return err
		}
		if err := printE2E(r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.E2E = append(rep.E2E, r)
	}
	return nil
}

// compareAA gates the second untraced suite against the first: each metric
// must agree within its own regression bound, in either direction. A
// difference beyond the bound on a metric whose own windows disagree by more
// than the bound is UNRESOLVED, not a failure: the run cannot tell it from noise.
func compareAA(a, b []*e2eResult) (ok bool) {
	ok = true
	for i, first := range a {
		for _, def := range e2eMetrics {
			x, have := first.metric(def.name)
			y, _ := b[i].metric(def.name)
			if !have {
				continue
			}
			diff := math.Abs(y.Value - x.Value)
			if !def.absolute {
				diff = ratio(diff, math.Abs(x.Value))
			}
			verdict := "PASS"
			switch {
			case diff <= def.bound:
			case math.Max(x.Spread, y.Spread) > def.bound:
				verdict = "UNRESOLVED"
			default:
				verdict, ok = "FAIL", false
			}
			fmt.Printf("aa %-12s %-20s %12.4f %12.4f %-5s diff=%.4f bound=%.3f %s\n",
				first.Workload, def.name, x.Value, y.Value, def.unit, diff, def.bound, verdict)
		}
	}
	return ok
}

func run() error {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Uint64("seed", 1, "request-stream seed; the dataset is fixed")
		seconds  = flag.Int("seconds", 24, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass")
		aa       = flag.Bool("aa", false, "run the untraced suite twice and gate the difference on each metric's bound")
		smoke    = flag.Bool("smoke", false, "200 requests per workload, no windows: exercises the harness only")
		jsonPath = flag.String("json", "", "also write everything printed to this file as JSON")
		out      = flag.String("out", "bench-out", "directory for wal scratch dirs and trace-<workload>.jsonl")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		return fmt.Errorf("usage: -seconds ≥ 1, -trace 0|1, no positional arguments")
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, smoke: *smoke, out: *out}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}

	rep := &report{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Seed: cfg.seed, Clients: clients,
		WindowS: (cfg.seconds / windows).Seconds(), WarmupS: cfg.warmup().Seconds(),
	}}
	h := rep.Header
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d clients=%d window=%.2fs warmup=%.2fs\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Seed, h.Clients, h.WindowS, h.WarmupS)

	ctx := context.Background()
	points := loadDataset()
	if err := suite(ctx, cfg, selected, *trace == 1, points, rep); err != nil {
		return err
	}
	if *aa {
		if *trace == 1 {
			return fmt.Errorf("-aa compares untraced runs; drop -trace 1")
		}
		second := &report{}
		if err := suite(ctx, cfg, selected, false, points, second); err != nil {
			return err
		}
		if !compareAA(rep.E2E, second.E2E) {
			return fmt.Errorf("two runs of the same code differ by more than a metric's bound")
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
