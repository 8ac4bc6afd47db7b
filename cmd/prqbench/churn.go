package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/replica"
)

// churnWriteFractions are the write rates the churn experiment sweeps: the
// fraction of operations that are mutations (each mutation is one insert plus
// one delete, so the point count stays fixed while epochs churn).
var churnWriteFractions = []float64{0, 0.05, 0.20, 0.50}

// churnPoints subsamples the road dataset for the churn cells. The full
// 50k-point set would need thousands of replaces per cell to cross the
// overlay-fold threshold (clamp(live/4, 128, 4096) entries); at 8k points
// the threshold is 2048, so the higher write fractions trigger real folds.
const churnPoints = 8192

// ingestWriters is the concurrency of the ingest-throughput rows: 64
// concurrent writers hammering one leader, the contention level the
// group-commit pipeline exists for. ingestPerWriter inserts per writer keeps
// the synchronous baseline (one fsync per insert) under a few seconds.
const (
	ingestWriters   = 64
	ingestPerWriter = 12
)

// ingestSpeedupFloor is the -compare gate: grouped commit must sustain at
// least this multiple of the synchronous per-batch-fsync insert throughput
// in the same run, on the same disk.
const ingestSpeedupFloor = 5.0

// ChurnReport is the JSON document `prqbench churn -json` writes.
type ChurnReport struct {
	Points    int          `json:"points"`
	Dim       int          `json:"dim"`
	Workers   int          `json:"workers"`
	Ops       int          `json:"ops_per_cell"`
	Delta     float64      `json:"delta"`
	Theta     float64      `json:"theta"`
	Gamma     float64      `json:"gamma"`
	Seed      uint64       `json:"seed"`
	Cells     []ChurnCell  `json:"cells"`
	Ingest    *ChurnIngest `json:"ingest,omitempty"`
	Generated churnByWhere `json:"generated_by"`
}

// ChurnIngest is the group-commit ingest section: sustained insert
// throughput at ingestWriters concurrent writers under the synchronous wal
// (one fsync per batch — the pre-pipeline behaviour) versus the grouped wal
// (one fsync per commit group), plus the determinism booleans the
// bench-compare gate enforces.
type ChurnIngest struct {
	Writers          int         `json:"writers"`
	InsertsPerWriter int         `json:"inserts_per_writer"`
	Rows             []IngestRow `json:"rows"`
	// GroupCommitSpeedup is grouped inserts/s over synchronous inserts/s,
	// measured in the same run on the same disk.
	GroupCommitSpeedup float64 `json:"group_commit_speedup"`
	// EpochsIdentical / AnswersIdentical: a deterministic single-writer
	// mutation sequence produces byte-identical epoch trails and query
	// answers under synchronous and grouped commit.
	EpochsIdentical  bool `json:"epochs_identical"`
	AnswersIdentical bool `json:"answers_identical"`
	// FollowerIdentical: a follower replaying the grouped wal answers the
	// same query with the same ids at the same epoch as the leader.
	FollowerIdentical bool `json:"follower_replay_identical"`
}

// IngestRow is one ingest measurement: mode is "sync-wal" (per-batch fsync)
// or "grouped-wal" (group commit).
type IngestRow struct {
	Mode          string  `json:"mode"`
	Inserts       int     `json:"inserts"`
	WallMS        float64 `json:"wall_ms"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	Fsyncs        uint64  `json:"fsyncs"`
	Records       uint64  `json:"log_records"`
	Groups        uint64  `json:"commit_groups"`
	MaxGroup      int     `json:"max_group"`
	Epochs        uint64  `json:"epochs_published"`
}

type churnByWhere struct {
	Command string `json:"command"`
}

// ChurnCell is one write fraction's measurement.
type ChurnCell struct {
	WriteFraction float64 `json:"write_fraction"`
	Reads         int     `json:"reads"`
	Writes        int     `json:"writes"`
	Epochs        uint64  `json:"epochs_published"`
	WallMS        float64 `json:"wall_ms"`
	ReadsPerSec   float64 `json:"reads_per_sec"`
	WritesPerSec  float64 `json:"writes_per_sec"`
	ReadP50US     float64 `json:"read_p50_us"`
	ReadP90US     float64 `json:"read_p90_us"`
	ReadP99US     float64 `json:"read_p99_us"`
	ReadMaxUS     float64 `json:"read_max_us"`
	WriteP50US    float64 `json:"write_p50_us"`
	WriteP99US    float64 `json:"write_p99_us"`
}

// runChurn measures read latency under concurrent mutations: `workers`
// goroutines issue paper-shaped queries against one DB while a share of
// operations (the write fraction) replaces a random live point (one insert +
// one delete per write, so dataset size is steady but the storage engine
// keeps publishing epochs and folding its overlay). Because reads pin an
// immutable snapshot and never lock, the headline result is how flat the
// read quantiles stay as the write fraction grows.
func runChurn(cfg experiments.Config, workers, ops int, jsonPath, comparePath string) error {
	if ops < 1 {
		return fmt.Errorf("-queries must be at least 1, got %d", ops)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if comparePath != "" {
		// Compare mode reruns only the ingest section (the latency sweep is
		// minutes of wall clock) and gates on same-run, same-disk invariants.
		return compareChurn(comparePath, seed)
	}
	points := data.LongBeach(seed)
	if len(points) > churnPoints {
		points = points[:churnPoints]
	}
	raw := make([][]float64, len(points))
	for i, p := range points {
		raw[i] = p
	}

	sigma := experiments.PaperSigmaBase().Scale(10)
	covRows := [][]float64{
		{sigma.At(0, 0), sigma.At(0, 1)},
		{sigma.At(1, 0), sigma.At(1, 1)},
	}

	rep := ChurnReport{
		Points:  len(points),
		Dim:     2,
		Workers: workers,
		Ops:     ops,
		Delta:   25,
		Theta:   0.01,
		Gamma:   10,
		Seed:    seed,
		Generated: churnByWhere{
			Command: fmt.Sprintf("prqbench -seed %d -workers %d -queries %d churn", seed, workers, ops),
		},
	}

	fmt.Printf("read/write churn (%d points, %d ops per cell, %d workers, δ=25, θ=0.01, γ=10)\n",
		len(points), ops, workers)
	for _, wf := range churnWriteFractions {
		cell, err := churnCell(raw, covRows, wf, workers, ops, seed)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Printf("  wf=%.2f : %6d reads (p50 %7.1fµs  p90 %7.1fµs  p99 %8.1fµs)  %5d writes  %4d epochs  %8.1f reads/s\n",
			cell.WriteFraction, cell.Reads,
			cell.ReadP50US, cell.ReadP90US, cell.ReadP99US,
			cell.Writes, cell.Epochs, cell.ReadsPerSec)
	}

	ing, err := runIngest(seed)
	if err != nil {
		return err
	}
	rep.Ingest = ing
	printIngest(ing)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// churnCell runs one write-fraction cell: a fresh DB, `ops` total
// operations split across `workers` goroutines, each operation a query or a
// replace (insert one point near a random site, delete a random live id)
// chosen by a per-worker deterministic RNG.
func churnCell(raw [][]float64, covRows [][]float64, writeFrac float64, workers, ops int, seed uint64) (ChurnCell, error) {
	db, err := gaussrange.Load(raw)
	if err != nil {
		return ChurnCell{}, err
	}
	epoch0 := db.Epoch()
	ctx := context.Background()

	// Replaceable id pool: ids inserted by this cell. Seed points stay put so
	// every query keeps a meaningful answer set; writes churn the pool.
	var (
		poolMu sync.Mutex
		pool   []int64
	)

	var (
		next      atomic.Int64
		readNS    = make([][]int64, workers)
		writeNS   = make([][]int64, workers)
		wg        sync.WaitGroup
		errMu     sync.Mutex
		firstErr  error
		readsDone atomic.Int64
	)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(w)))
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				site := raw[rng.Intn(len(raw))]
				if rng.Float64() < writeFrac {
					// One replace: insert a jittered copy of a random site,
					// then delete a previously inserted id (if any).
					p := []float64{site[0] + rng.NormFloat64(), site[1] + rng.NormFloat64()}
					t := time.Now()
					id, err := db.Insert(p)
					if err == nil {
						poolMu.Lock()
						pool = append(pool, id)
						var victim int64 = -1
						if len(pool) > 1 {
							k := rng.Intn(len(pool))
							victim = pool[k]
							pool[k] = pool[len(pool)-1]
							pool = pool[:len(pool)-1]
						}
						poolMu.Unlock()
						if victim >= 0 {
							_, err = db.Delete(victim)
						}
					}
					writeNS[w] = append(writeNS[w], time.Since(t).Nanoseconds())
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					continue
				}
				spec := gaussrange.QuerySpec{
					Center: []float64{site[0], site[1]},
					Cov:    covRows,
					Delta:  25,
					Theta:  0.01,
				}
				t := time.Now()
				_, err := db.QueryCtx(ctx, spec)
				readNS[w] = append(readNS[w], time.Since(t).Nanoseconds())
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				readsDone.Add(1)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return ChurnCell{}, firstErr
	}

	var reads, writes []int64
	for w := 0; w < workers; w++ {
		reads = append(reads, readNS[w]...)
		writes = append(writes, writeNS[w]...)
	}
	sort.Slice(reads, func(a, b int) bool { return reads[a] < reads[b] })
	sort.Slice(writes, func(a, b int) bool { return writes[a] < writes[b] })

	cell := ChurnCell{
		WriteFraction: writeFrac,
		Reads:         len(reads),
		Writes:        len(writes),
		Epochs:        db.Epoch() - epoch0,
		WallMS:        float64(wall.Nanoseconds()) / 1e6,
		ReadsPerSec:   float64(len(reads)) / wall.Seconds(),
		WritesPerSec:  float64(len(writes)) / wall.Seconds(),
		ReadP50US:     quantileUS(reads, 0.50),
		ReadP90US:     quantileUS(reads, 0.90),
		ReadP99US:     quantileUS(reads, 0.99),
		ReadMaxUS:     quantileUS(reads, 1),
		WriteP50US:    quantileUS(writes, 0.50),
		WriteP99US:    quantileUS(writes, 0.99),
	}
	return cell, nil
}

// runIngest measures sustained insert throughput at ingestWriters concurrent
// writers under both wal modes, then checks the determinism contract: a
// deterministic single-writer sequence must produce byte-identical epochs
// and answers under synchronous and grouped commit, and a follower replaying
// the grouped log must answer identically to its leader.
func runIngest(seed uint64) (*ChurnIngest, error) {
	ing := &ChurnIngest{Writers: ingestWriters, InsertsPerWriter: ingestPerWriter}
	// Best of three repetitions per mode: one round is ~100ms of wall clock
	// and scheduler noise on a loaded CI box can dwarf the effect under test.
	best := func(mode string, synchronous bool) (IngestRow, error) {
		var bestRow IngestRow
		for rep := 0; rep < 3; rep++ {
			row, err := ingestRow(mode, synchronous, seed+uint64(rep))
			if err != nil {
				return IngestRow{}, err
			}
			if row.InsertsPerSec > bestRow.InsertsPerSec {
				bestRow = row
			}
		}
		return bestRow, nil
	}
	syncRow, err := best("sync-wal", true)
	if err != nil {
		return nil, err
	}
	groupedRow, err := best("grouped-wal", false)
	if err != nil {
		return nil, err
	}
	ing.Rows = []IngestRow{syncRow, groupedRow}
	if syncRow.InsertsPerSec > 0 {
		ing.GroupCommitSpeedup = groupedRow.InsertsPerSec / syncRow.InsertsPerSec
	}
	ing.EpochsIdentical, ing.AnswersIdentical, ing.FollowerIdentical, err = ingestIdentity(seed)
	if err != nil {
		return nil, err
	}
	return ing, nil
}

// ingestRow runs one throughput measurement: a fresh 2-D DB with a wal in
// the given mode, ingestWriters goroutines each inserting ingestPerWriter
// single points (the per-request shape `POST /v1/points` produces).
func ingestRow(mode string, synchronous bool, seed uint64) (IngestRow, error) {
	dir, err := os.MkdirTemp("", "prqingest")
	if err != nil {
		return IngestRow{}, err
	}
	defer os.RemoveAll(dir)

	db, err := gaussrange.Open(2, gaussrange.WithSeed(seed))
	if err != nil {
		return IngestRow{}, err
	}
	if _, err := db.AttachWAL(gaussrange.WALConfig{Dir: dir, Synchronous: synchronous}); err != nil {
		return IngestRow{}, err
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	t0 := time.Now()
	for w := 0; w < ingestWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*7_368_787 + int64(w)))
			for i := 0; i < ingestPerWriter; i++ {
				p := []float64{500 + rng.NormFloat64()*30, 500 + rng.NormFloat64()*30}
				if _, err := db.Insert(p); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	ws, _ := db.WALStats()
	if err := db.DetachWAL(); err != nil {
		return IngestRow{}, err
	}
	if firstErr != nil {
		return IngestRow{}, firstErr
	}

	n := ingestWriters * ingestPerWriter
	return IngestRow{
		Mode:          mode,
		Inserts:       n,
		WallMS:        float64(wall.Nanoseconds()) / 1e6,
		InsertsPerSec: float64(n) / wall.Seconds(),
		Fsyncs:        ws.Store.Fsyncs,
		Records:       ws.Store.Records,
		Groups:        ws.Batcher.Groups,
		MaxGroup:      ws.Batcher.MaxGroup,
		Epochs:        db.Epoch(),
	}, nil
}

// identityTrail runs the deterministic single-writer mutation sequence on db
// (mostly inserts near the paper query center, one delete in four) and
// returns the epoch published after every operation.
func identityTrail(db *gaussrange.DB, seed uint64) ([]uint64, error) {
	rng := rand.New(rand.NewSource(int64(seed) * 99_991))
	var live []int64
	trail := make([]uint64, 0, 60)
	for i := 0; i < 60; i++ {
		if rng.Float64() < 0.25 && len(live) > 0 {
			k := rng.Intn(len(live))
			if _, err := db.Delete(live[k]); err != nil {
				return nil, err
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			p := []float64{500 + rng.NormFloat64()*20, 500 + rng.NormFloat64()*20}
			id, err := db.Insert(p)
			if err != nil {
				return nil, err
			}
			live = append(live, id)
		}
		trail = append(trail, db.Epoch())
	}
	return trail, nil
}

// ingestIdentity checks the byte-identity contract across the three ways a
// mutation history can be executed: synchronous commit, grouped commit, and
// follower replay of the grouped log.
func ingestIdentity(seed uint64) (epochsOK, answersOK, followerOK bool, err error) {
	spec := gaussrange.QuerySpec{
		Center: []float64{500, 500},
		Cov:    [][]float64{{70, 34.6}, {34.6, 30}},
		Delta:  25,
		Theta:  0.01,
	}
	run := func(synchronous bool) (string, []uint64, *gaussrange.Result, func(), error) {
		dir, err := os.MkdirTemp("", "prqident")
		if err != nil {
			return "", nil, nil, nil, err
		}
		cleanup := func() { os.RemoveAll(dir) }
		db, err := gaussrange.Open(2, gaussrange.WithSeed(seed))
		if err != nil {
			cleanup()
			return "", nil, nil, nil, err
		}
		if _, err := db.AttachWAL(gaussrange.WALConfig{Dir: dir, Synchronous: synchronous}); err != nil {
			cleanup()
			return "", nil, nil, nil, err
		}
		trail, err := identityTrail(db, seed)
		if err == nil {
			err = db.DetachWAL()
		}
		if err != nil {
			cleanup()
			return "", nil, nil, nil, err
		}
		res, err := db.Query(spec)
		if err != nil {
			cleanup()
			return "", nil, nil, nil, err
		}
		return dir, trail, res, cleanup, nil
	}

	_, syncTrail, syncRes, syncClean, err := run(true)
	if err != nil {
		return false, false, false, err
	}
	defer syncClean()
	groupedDir, groupedTrail, groupedRes, groupedClean, err := run(false)
	if err != nil {
		return false, false, false, err
	}
	defer groupedClean()

	epochsOK = reflect.DeepEqual(syncTrail, groupedTrail)
	answersOK = reflect.DeepEqual(syncRes.IDs, groupedRes.IDs) && syncRes.Epoch == groupedRes.Epoch

	fdb, err := gaussrange.Open(2, gaussrange.WithSeed(seed))
	if err != nil {
		return epochsOK, answersOK, false, err
	}
	f, err := replica.New(fdb, replica.Config{Dir: groupedDir})
	if err != nil {
		return epochsOK, answersOK, false, err
	}
	defer f.Stop()
	if _, err := f.CatchUp(); err != nil {
		return epochsOK, answersOK, false, err
	}
	fres, err := fdb.Query(spec)
	if err != nil {
		return epochsOK, answersOK, false, err
	}
	followerOK = reflect.DeepEqual(fres.IDs, groupedRes.IDs) && fres.Epoch == groupedRes.Epoch
	return epochsOK, answersOK, followerOK, nil
}

func printIngest(ing *ChurnIngest) {
	fmt.Printf("group-commit ingest (%d writers × %d single-point inserts)\n",
		ing.Writers, ing.InsertsPerWriter)
	for _, r := range ing.Rows {
		fmt.Printf("  %-12s : %6d inserts in %8.1f ms  (%8.1f inserts/s, %4d fsyncs, %4d records",
			r.Mode, r.Inserts, r.WallMS, r.InsertsPerSec, r.Fsyncs, r.Records)
		if r.Groups > 0 {
			fmt.Printf(", max group %d", r.MaxGroup)
		}
		fmt.Printf(")\n")
	}
	fmt.Printf("  group-commit speedup : %.2fx\n", ing.GroupCommitSpeedup)
	fmt.Printf("  epochs identical %v, answers identical %v, follower replay identical %v\n",
		ing.EpochsIdentical, ing.AnswersIdentical, ing.FollowerIdentical)
}

// compareChurn is the bench-compare gate: it reruns the ingest section and
// fails unless grouped commit sustains ≥5× the synchronous insert rate in
// the same run AND the sync/grouped/follower identity booleans all hold. The
// committed baseline must itself have recorded a passing ingest section, so
// a stale artifact regenerated before a regression cannot mask it.
func compareChurn(baselinePath string, seed uint64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base ChurnReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	if base.Ingest == nil {
		return fmt.Errorf("baseline %s has no ingest section — regenerate it with `make bench-snapshot`", baselinePath)
	}
	if base.Ingest.GroupCommitSpeedup < ingestSpeedupFloor {
		return fmt.Errorf("baseline %s records group-commit speedup %.2fx < %.0fx — the committed artifact already fails the gate",
			baselinePath, base.Ingest.GroupCommitSpeedup, ingestSpeedupFloor)
	}
	if !base.Ingest.EpochsIdentical || !base.Ingest.AnswersIdentical || !base.Ingest.FollowerIdentical {
		return fmt.Errorf("baseline %s records an identity failure — the committed artifact already fails the gate", baselinePath)
	}

	ing, err := runIngest(seed)
	if err != nil {
		return err
	}
	printIngest(ing)
	if ing.GroupCommitSpeedup < ingestSpeedupFloor {
		return fmt.Errorf("group-commit speedup %.2fx below the %.0fx floor (sync %.1f inserts/s, grouped %.1f inserts/s)",
			ing.GroupCommitSpeedup, ingestSpeedupFloor, ing.Rows[0].InsertsPerSec, ing.Rows[1].InsertsPerSec)
	}
	if !ing.EpochsIdentical || !ing.AnswersIdentical {
		return fmt.Errorf("sync and grouped commit diverged (epochs identical %v, answers identical %v)",
			ing.EpochsIdentical, ing.AnswersIdentical)
	}
	if !ing.FollowerIdentical {
		return fmt.Errorf("follower replay diverged from its leader")
	}
	sync, grouped := ing.Rows[0], ing.Rows[1]
	if grouped.Fsyncs >= sync.Fsyncs {
		return fmt.Errorf("grouped mode issued %d fsyncs, synchronous mode %d — commit groups are not grouping",
			grouped.Fsyncs, sync.Fsyncs)
	}
	fmt.Println("churn ingest gate: OK")
	return nil
}

// quantileUS returns the q-quantile of sorted nanosecond samples, in µs.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}
