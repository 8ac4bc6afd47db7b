package server

import (
	"context"
	"net/http"

	"gaussrange"
	"gaussrange/replica"
)

// Backend is what a Server serves: a local *gaussrange.DB (Config.DB) or a
// shard router (Config.Backend). The Server owns the HTTP side — decoding,
// admission, deadlines, the read-only refusal, each answer's ids_format,
// metrics and the error→status map — so a Backend only answers. An error it
// returns is a 400 unless it is a context error (504, 499) or a
// *StatusError.
type Backend interface {
	// Query answers one query; the ids may be in either answer field.
	Query(ctx context.Context, req QueryRequest) (QueryResponse, error)
	// Prob is the exact qualification probability of stored point req.ID.
	Prob(ctx context.Context, req ProbRequest) (float64, error)
	// Points returns the coordinates of ids, aligned with ids.
	Points(ctx context.Context, ids []int64) ([]Point, error)
	// Insert applies points as one batch under the given ids (none: the
	// backend assigns them) and reports the ids and the epoch it published.
	Insert(ctx context.Context, points [][]float64, ids []int64) ([]int64, uint64, error)
	// Delete removes id; deleted is false when it was unknown or gone.
	Delete(ctx context.Context, id int64) (deleted bool, epoch uint64, err error)
	// Health is the /healthz document; the Server sets ReadOnly.
	Health(ctx context.Context) Health
	// Stats is the backend's part of /statsz. The Server adds uptime,
	// admission, query totals, endpoints and the plan cache's hit rate.
	Stats(ctx context.Context) StatsSnapshot
}

// StatusError is a Backend error that carries its HTTP status.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }

func (e *StatusError) Unwrap() error { return e.Err }

// DBBackend returns the Backend that a Server made with Config{DB: db}
// serves, for a caller that wraps it and serves the wrapper as
// Config.Backend.
func DBBackend(db *gaussrange.DB) Backend { return dbBackend{db: db} }

// dbBackend serves a local DB; follower, when set, is the log tailer that
// feeds it.
type dbBackend struct {
	db       *gaussrange.DB
	follower *replica.Follower
}

// Query answers in wire form, stamping replica provenance when the DB is a
// follower's.
func (b dbBackend) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	res, err := b.db.QueryCtx(ctx, req.Spec())
	if err != nil {
		return QueryResponse{}, err
	}
	ids := res.IDs
	if ids == nil {
		ids = []int64{}
	}
	r := QueryResponse{IDs: ids, Epoch: res.Epoch, Stats: StatsFromResult(res.Stats)}
	if b.follower != nil {
		r.ReplicaEpoch = res.Epoch
	}
	return r, nil
}

// Prob answers a 404 for an id that is unknown or deleted, as /v1/points
// does; the id is looked up, because Len counts live points, not the id
// space. Looking it up after a failure also covers a delete racing the query.
func (b dbBackend) Prob(_ context.Context, req ProbRequest) (float64, error) {
	p, err := b.db.QueryProb(req.Spec(), req.ID)
	if err != nil {
		if _, lookup := b.db.Point(req.ID); lookup != nil {
			return 0, &StatusError{http.StatusNotFound, lookup}
		}
	}
	return p, err
}

func (b dbBackend) Points(_ context.Context, ids []int64) ([]Point, error) {
	out := make([]Point, len(ids))
	for i, id := range ids {
		coords, err := b.db.Point(id)
		if err != nil {
			return nil, &StatusError{http.StatusNotFound, err}
		}
		out[i] = Point{ID: id, Coords: coords}
	}
	return out, nil
}

func (b dbBackend) Insert(_ context.Context, points [][]float64, ids []int64) ([]int64, uint64, error) {
	if len(ids) > 0 {
		// Explicit identifiers from an upstream allocator (shard router).
		_, epoch, err := b.db.ApplyWithIDs(points, ids, nil)
		return ids, epoch, err
	}
	ids, _, epoch, err := b.db.Apply(points, nil)
	return ids, epoch, err
}

func (b dbBackend) Delete(_ context.Context, id int64) (bool, uint64, error) {
	_, deleted, epoch, err := b.db.Apply(nil, []int64{id})
	if err != nil {
		return false, 0, err
	}
	return deleted[0], epoch, nil
}

func (b dbBackend) Health(context.Context) Health {
	h := Health{Status: "ok", Points: b.db.Len(), Dim: b.db.Dim(), Epoch: b.db.Epoch(), MaxID: b.db.MaxID()}
	if b.follower != nil {
		st := b.follower.Stats()
		h.ReplicaEpoch, h.ReplicaError = st.Epoch, st.Err
	}
	return h
}

func (b dbBackend) Stats(context.Context) StatsSnapshot {
	hits, misses := b.db.PlanCacheStats()
	snap := StatsSnapshot{
		Points:    b.db.Len(),
		Dim:       b.db.Dim(),
		Epoch:     b.db.Epoch(),
		PlanCache: PlanCacheStats{Hits: hits, Misses: misses},
	}
	if w, ok := b.db.WALStats(); ok {
		ws := &WALStatsz{
			Synchronous:    w.Synchronous,
			CommitBytes:    w.Batcher.MaxBytes,
			Groups:         w.Batcher.Groups,
			Submissions:    w.Batcher.Submissions,
			MaxGroup:       w.Batcher.MaxGroup,
			Pending:        w.Batcher.Pending,
			WindowEmpty:    w.Batcher.ClosedBy.Empty,
			WindowBytes:    w.Batcher.ClosedBy.Bytes,
			WindowDrain:    w.Batcher.ClosedBy.Drain,
			Segments:       w.Store.Segments,
			SealedSegments: int(w.Store.SealedSegments),
			Records:        w.Store.Records,
			AppendedBytes:  int64(w.Store.AppendedBytes),
			Fsyncs:         w.Store.Fsyncs,
			LastEpoch:      w.Store.LastEpoch,
		}
		if n := w.Batcher.Submissions; n > 0 {
			ws.QueueMeanUS = float64(w.Batcher.QueueNanos) / float64(n) / 1e3
			ws.FlushMeanUS = float64(w.Batcher.FlushNanos) / float64(n) / 1e3
		}
		snap.WAL = ws
	}
	if b.follower != nil {
		r := b.follower.Stats()
		snap.Replica = &ReplicaStatsz{
			Epoch:            r.Epoch,
			Applied:          r.Applied,
			Skipped:          r.Skipped,
			SegmentsVerified: r.SegmentsVerified,
			Polls:            r.Polls,
			Error:            r.Err,
		}
	}
	return snap
}
