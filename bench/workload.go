package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/internal/mc"
	"gaussrange/server"
)

// datasetSeed fixes the indexed point set: -seed varies only the requests.
const datasetSeed = 1

// workload is one closed-loop traffic mix. Σ = gamma·PaperSigmaBase, the
// strategy is left empty (ALL), and every read workload differs from the
// others only in (gamma, delta): the query shape is what moves Phase 3's
// share of a request from ~60 % to >99 %.
type workload struct {
	name  string
	why   string
	gamma float64
	delta float64
	theta float64
	// churn replaces one of the two readers by a writer and attaches a wal.
	churn bool
}

var workloads = []workload{
	{name: "paper_read", gamma: 10, delta: 25, theta: 0.01,
		why: "the paper's Table-I default: ~200 Ruben integrations/query, Phase 3 ~95% of library time; a Phase-3 kernel change must show here"},
	{name: "coarse_read", gamma: 100, delta: 5, theta: 0.01,
		why: "cheap integrations (~1.5us), so transport + server + packed Phase 1/2 hold their largest share; a per-integration speed-up should barely move it"},
	{name: "tight_read", gamma: 1, delta: 25, theta: 0.01,
		why: "few survivors but ~210us each as the Ruben series lengthens; catches a Phase-3 change that wins at gamma=10 and loses where delta^2/lambda is large"},
	{name: "churn_mixed", gamma: 100, delta: 5, theta: 0.01, churn: true,
		why: "coarse_read reader beside one insert+delete writer on a wal: overlay merge, fold and fsync interference read off against coarse_read"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// loadDataset returns the paper's §V 2-D road set as plain rows.
func loadDataset() [][]float64 {
	pts := data.LongBeach(datasetSeed)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	return raw
}

const (
	// streamReads bounds the pre-generated centres; the closed loop wraps
	// around it (the server keeps no answer cache, so a repeat costs the same).
	streamReads = 1 << 17
	// streamWrites is far more insert points than one run issues.
	streamWrites = 1 << 15
	// writeJitter is the std-dev of the offset added to a dataset point to
	// make a write point, in dataset units ([0, 1000]²): new points land on
	// the existing streets' density, not uniformly.
	writeJitter = 2.0
)

// stream is the request sequence of one (workload, seed): read i is a query
// of the workload's shape centred on centers[i], write i inserts writes[i].
// Centres depend on the seed only, so coarse_read and churn_mixed's reader
// see the same queries.
type stream struct {
	cov   [][]float64
	delta float64
	theta float64
	// centers and writes are flat (x, y) pairs: one allocation each, so the
	// stream adds little to the heap the run reports.
	centers []float64
	writes  []float64
}

func newStream(w workload, seed uint64, points [][]float64) *stream {
	sigma := experiments.PaperSigmaBase().Scale(w.gamma)
	s := &stream{
		cov: [][]float64{
			{sigma.At(0, 0), sigma.At(0, 1)},
			{sigma.At(1, 0), sigma.At(1, 1)},
		},
		delta:   w.delta,
		theta:   w.theta,
		centers: make([]float64, 0, 2*streamReads),
		writes:  make([]float64, 0, 2*streamWrites),
	}
	rng := mc.NewRNG(seed)
	for i := 0; i < streamReads; i++ {
		p := points[rng.Intn(len(points))]
		s.centers = append(s.centers, p[0], p[1])
	}
	wrng := mc.NewRNG(seed ^ 0x77726974655f7267) // independent write stream
	for i := 0; i < streamWrites; i++ {
		p := points[wrng.Intn(len(points))]
		s.writes = append(s.writes, p[0]+writeJitter*wrng.NormFloat64(), p[1]+writeJitter*wrng.NormFloat64())
	}
	return s
}

// pair returns the i-th (x, y) of flat, wrapping around.
func pair(flat []float64, i int) []float64 {
	j := 2 * (i % (len(flat) / 2))
	return flat[j : j+2 : j+2]
}

func (s *stream) center(i int) []float64 { return pair(s.centers, i) }

func (s *stream) write(i int) []float64 { return pair(s.writes, i) }

func (s *stream) spec(i int) gaussrange.QuerySpec {
	return gaussrange.QuerySpec{Center: s.center(i), Cov: s.cov, Delta: s.delta, Theta: s.theta}
}

// applyFunc applies one mutation batch and returns the ids given to its inserts.
type applyFunc func(inserts [][]float64, deletes []int64) ([]int64, error)

func dbApply(db *gaussrange.DB) applyFunc {
	return func(inserts [][]float64, deletes []int64) ([]int64, error) {
		ids, _, _, err := db.Apply(inserts, deletes)
		return ids, err
	}
}

// churnPrefill is how many insert+delete pairs churn_mixed starts behind. A
// lone durable writer manages ~150 writes/s on the reference box, so from an
// empty overlay a run would never reach the 4 096-entry fold threshold;
// starting three quarters full puts the first fold a few seconds into the
// first measured window of every run.
const churnPrefill = 1536

// prefill applies the stream's last churnPrefill writes as insert+delete
// pairs: the live set is unchanged, the overlay holds 2·churnPrefill entries.
// It is bench state, not system set-up, so it is applied before the wal is
// attached and is not timed; a follower of that wal starts from the same state.
func (s *stream) prefill(apply applyFunc) error {
	for i := 0; i < churnPrefill; i++ {
		ids, err := apply([][]float64{s.write(streamWrites - 1 - i)}, nil)
		if err != nil {
			return err
		}
		if _, err := apply(nil, ids); err != nil {
			return err
		}
	}
	return nil
}

// encode renders the first n reads and writes exactly as they go on the wire.
func (s *stream) encode(n int) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		enc.Encode(server.RequestFromSpec(s.spec(i)))
		enc.Encode(server.InsertPointsRequest{Points: [][]float64{s.write(i)}})
	}
	return buf.Bytes()
}
