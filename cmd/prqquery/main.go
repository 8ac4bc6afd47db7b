// Command prqquery runs one probabilistic range query against a CSV point
// dataset — or against a running prqserved instance — and prints the
// qualifying points.
//
// Usage:
//
//	prqquery [flags] <points.csv>
//	prqquery -server http://host:port [flags]
//
// Flags:
//
//	-center "x,y,…"   query mean q (required)
//	-cov "a,b;c,d"    covariance rows separated by ';' (required)
//	-delta D          distance threshold δ (required, > 0)
//	-theta T          probability threshold θ in (0, 1) (required)
//	-strategy S       RR | BF | RR+BF | RR+OR | BF+OR | ALL (default ALL)
//	-timeout D        abort the query after duration D (e.g. 500ms; 0 = none)
//	-server URL       query a prqserved instance instead of loading a CSV
//	-json             print the result as JSON (scriptable; identical shape
//	                  in local and server mode, so answers diff directly)
//	-v                print per-object probabilities
//	-topk K           report only the K most probable answers (local mode)
//	-pnn              probabilistic nearest neighbors with p ≥ θ instead of
//	                  a range query, from 20 000 sampled query locations
//	                  (local mode)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/internal/data"
	"gaussrange/server"
)

func parseVector(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseMatrix(s string) ([][]float64, error) {
	rows := strings.Split(s, ";")
	out := make([][]float64, len(rows))
	for i, r := range rows {
		v, err := parseVector(r)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// runOpts collects everything main parses from the command line.
type runOpts struct {
	path      string // CSV dataset; empty in server mode
	serverURL string // prqserved base URL; empty in local mode
	center    string
	cov       string
	delta     float64
	theta     float64
	strategy  string
	timeout   time.Duration
	verbose   bool
	topK      int
	pnn       bool
	jsonOut   bool
}

func main() {
	var o runOpts
	flag.StringVar(&o.center, "center", "", "query mean, comma-separated")
	flag.StringVar(&o.cov, "cov", "", "covariance rows, ';'-separated")
	flag.Float64Var(&o.delta, "delta", 0, "distance threshold δ")
	flag.Float64Var(&o.theta, "theta", 0, "probability threshold θ")
	flag.StringVar(&o.strategy, "strategy", "ALL", "filter strategy")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the query after this duration (0 = no limit)")
	flag.StringVar(&o.serverURL, "server", "", "query a running prqserved at this base URL instead of loading a CSV")
	flag.BoolVar(&o.jsonOut, "json", false, "print the result as JSON")
	flag.BoolVar(&o.verbose, "v", false, "print per-object probabilities")
	flag.IntVar(&o.topK, "topk", 0, "report only the k most probable answers")
	flag.BoolVar(&o.pnn, "pnn", false, "run a probabilistic nearest-neighbor query instead of a range query")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prqquery [flags] <points.csv>\n       prqquery -server URL [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	switch {
	case o.serverURL == "" && flag.NArg() == 1:
		o.path = flag.Arg(0)
	case o.serverURL != "" && flag.NArg() == 0:
	default:
		flag.Usage()
		os.Exit(2)
	}
	if o.center == "" || o.cov == "" {
		flag.Usage()
		os.Exit(2)
	}

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "prqquery: %v\n", err)
		os.Exit(1)
	}
}

// jsonAnswer is one probability-annotated answer in -json output.
type jsonAnswer struct {
	ID          int64     `json:"id"`
	Probability float64   `json:"probability"`
	Coords      []float64 `json:"coords"`
}

// jsonOutput is the -json result shape, identical for local and server
// queries so the two modes diff byte-for-byte (modulo stats timings).
type jsonOutput struct {
	Points  int                `json:"points"`
	Dim     int                `json:"dim"`
	IDs     []int64            `json:"ids"`
	Stats   *server.QueryStats `json:"stats,omitempty"`
	Answers []jsonAnswer       `json:"answers,omitempty"`
}

// pnnSamples is the number of query locations -pnn draws; the standard error
// of a reported probability p is √(p(1−p)/20 000) ≤ 0.0036.
const pnnSamples = 20000

func run(o runOpts, out io.Writer) error {
	c, err := parseVector(o.center)
	if err != nil {
		return fmt.Errorf("parsing -center: %w", err)
	}
	m, err := parseMatrix(o.cov)
	if err != nil {
		return fmt.Errorf("parsing -cov: %w", err)
	}
	spec := gaussrange.QuerySpec{Center: c, Cov: m, Delta: o.delta, Theta: o.theta, Strategy: o.strategy}

	if o.serverURL != "" {
		if o.topK > 0 || o.pnn {
			return errors.New("-topk and -pnn are not supported with -server")
		}
		return runServer(o, spec, out)
	}
	return runLocal(o, spec, c, m, out)
}

// runServer answers the query through a prqserved instance.
func runServer(o runOpts, spec gaussrange.QuerySpec, out io.Writer) error {
	cl := client.New(o.serverURL)
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	h, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	res, err := cl.Query(ctx, spec)
	if err != nil {
		if ctx.Err() != nil || client.IsDeadline(err) {
			return fmt.Errorf("query exceeded -timeout %v: %w", o.timeout, err)
		}
		return err
	}
	var answers []jsonAnswer
	if o.verbose {
		for _, id := range res.IDs {
			p, err := cl.QueryProb(ctx, spec, id)
			if err != nil {
				return err
			}
			coords, err := cl.Point(ctx, id)
			if err != nil {
				return err
			}
			answers = append(answers, jsonAnswer{ID: id, Probability: p, Coords: coords})
		}
	}
	return render(o, out, h.Points, h.Dim, res, answers)
}

// runLocal loads the CSV and answers the query in-process.
func runLocal(o runOpts, spec gaussrange.QuerySpec, c []float64, m [][]float64, out io.Writer) error {
	pts, err := data.LoadCSV(o.path)
	if err != nil {
		return err
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	db, err := gaussrange.Load(raw)
	if err != nil {
		return err
	}

	if o.pnn {
		if o.jsonOut {
			return errors.New("-json applies to range queries, not -pnn")
		}
		results, err := db.PNN(c, m, o.theta, pnnSamples)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dataset: %d points (%d-D)\n", db.Len(), db.Dim())
		fmt.Fprintf(out, "probabilistic nearest neighbors with p ≥ %g:\n", o.theta)
		for _, r := range results {
			coords, err := db.Point(r.ID)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  id %-8d p=%.4f  %v\n", r.ID, r.Probability, coords)
		}
		return nil
	}

	if o.topK > 0 {
		if o.jsonOut {
			return errors.New("-json applies to range queries, not -topk")
		}
		matches, err := db.QueryTopK(spec, o.topK)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dataset: %d points (%d-D)\n", db.Len(), db.Dim())
		fmt.Fprintf(out, "top-%d answers:\n", o.topK)
		for _, mt := range matches {
			coords, err := db.Point(mt.ID)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  id %-8d p=%.4f  %v\n", mt.ID, mt.Probability, coords)
		}
		return nil
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	res, err := db.QueryCtx(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("query exceeded -timeout %v: %w", o.timeout, err)
		}
		return err
	}
	var answers []jsonAnswer
	if o.verbose {
		for _, id := range res.IDs {
			p, err := db.QueryProb(spec, id)
			if err != nil {
				return err
			}
			coords, _ := db.Point(id)
			answers = append(answers, jsonAnswer{ID: id, Probability: p, Coords: coords})
		}
	}
	return render(o, out, db.Len(), db.Dim(), res, answers)
}

// render prints the completed query as text or JSON.
func render(o runOpts, out io.Writer, points, dim int, res *gaussrange.Result, answers []jsonAnswer) error {
	if o.jsonOut {
		ids := res.IDs
		if ids == nil {
			ids = []int64{}
		}
		st := server.StatsFromResult(res.Stats)
		enc := json.NewEncoder(out)
		return enc.Encode(jsonOutput{
			Points:  points,
			Dim:     dim,
			IDs:     ids,
			Stats:   &st,
			Answers: answers,
		})
	}
	st := res.Stats
	fmt.Fprintf(out, "dataset: %d points (%d-D)\n", points, dim)
	fmt.Fprintf(out, "answers: %d\n", len(res.IDs))
	fmt.Fprintf(out, "phase 1: retrieved %d candidates (%d node reads, %v)\n", st.Retrieved, st.NodesRead, st.IndexTime)
	if st.OverlayScanned > 0 || st.F32Rechecks > 0 {
		fmt.Fprintf(out, "packed:  %d overlay scans, %d f32 rechecks\n", st.OverlayScanned, st.F32Rechecks)
	}
	fmt.Fprintf(out, "phase 2: pruned fringe=%d or=%d bf=%d; accepted bf=%d (%v)\n",
		st.PrunedFringe, st.PrunedOR, st.PrunedBF, st.AcceptedBF, st.FilterTime)
	fmt.Fprintf(out, "phase 3: %d integrations (%v)\n", st.Integrations, st.ProbTime)
	for _, a := range answers {
		fmt.Fprintf(out, "  id %-8d p=%.4f  %v\n", a.ID, a.Probability, a.Coords)
	}
	return nil
}
