package server_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/replica"
	"gaussrange/server"
)

// newLeaderFollowerPair starts a leader server over a wal-attached DB and a
// read-only follower server tailing the same segment directory.
func newLeaderFollowerPair(t *testing.T) (leaderDB *gaussrange.DB, lc, fc *client.Client, f *replica.Follower) {
	t.Helper()
	dir := t.TempDir()
	leaderDB, err := gaussrange.Open(2, gaussrange.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderDB.AttachWAL(gaussrange.WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaderDB.DetachWAL() })
	ls, err := server.New(server.Config{DB: leaderDB})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(ls.Handler())
	t.Cleanup(lts.Close)

	fdb, err := gaussrange.Open(2, gaussrange.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	f, err = replica.New(fdb, replica.Config{Dir: dir, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	fs, err := server.New(server.Config{DB: fdb, ReadOnly: true, Follower: f})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fs.Handler())
	t.Cleanup(fts.Close)
	return leaderDB, client.New(lts.URL), client.New(fts.URL), f
}

// TestFollowerServing: write on the leader, read on the follower — the
// follower answers at ≥ the published epoch with the same ids, refuses
// mutations with 403, and reports replication state on /healthz and /statsz.
func TestFollowerServing(t *testing.T) {
	ctx := context.Background()
	_, lc, fc, f := newLeaderFollowerPair(t)

	pts := [][]float64{{1, 1}, {2, 2}, {3, 3}, {40, 40}}
	ids, epoch, err := lc.InsertPoints(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}

	spec := gaussrange.QuerySpec{Center: []float64{2, 2}, Cov: [][]float64{{1, 0}, {0, 1}}, Delta: 3, Theta: 0.2}
	lres, err := lc.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fc.QueryRaw(ctx, server.RequestFromSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if raw.Epoch < epoch {
		t.Fatalf("follower answered at epoch %d, leader write published %d", raw.Epoch, epoch)
	}
	if raw.ReplicaEpoch != raw.Epoch {
		t.Fatalf("replica_epoch %d != answer epoch %d", raw.ReplicaEpoch, raw.Epoch)
	}
	if !reflect.DeepEqual(raw.IDs, lres.IDs) {
		t.Fatalf("follower ids %v, leader ids %v", raw.IDs, lres.IDs)
	}

	// The leader's own responses must NOT claim replica provenance.
	lraw, err := lc.QueryRaw(ctx, server.RequestFromSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if lraw.ReplicaEpoch != 0 {
		t.Fatalf("leader response carries replica_epoch %d", lraw.ReplicaEpoch)
	}

	// Mutations on the follower are refused with 403.
	if _, _, err := fc.InsertPoints(ctx, [][]float64{{9, 9}}); err == nil {
		t.Fatal("follower accepted an insert")
	}
	if _, _, err := fc.DeletePoint(ctx, ids[0]); err == nil {
		t.Fatal("follower accepted a delete")
	}

	h, err := fc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.ReadOnly || h.ReplicaEpoch < epoch || h.ReplicaError != "" {
		t.Fatalf("follower health: %+v", h)
	}
	st, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replica == nil || st.Replica.Applied == 0 || st.Replica.Epoch < epoch {
		t.Fatalf("follower statsz replica section: %+v", st.Replica)
	}
	if st.WAL != nil {
		t.Fatal("follower statsz claims a wal")
	}

	lst, err := lc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lst.WAL == nil || lst.WAL.Groups == 0 || lst.WAL.Records == 0 || lst.WAL.Fsyncs == 0 {
		t.Fatalf("leader statsz wal section: %+v", lst.WAL)
	}
	if lst.Replica != nil {
		t.Fatal("leader statsz claims a replica section")
	}
}
