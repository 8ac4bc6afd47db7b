package server_test

import (
	"math"

	"gaussrange/server"
)

// The values behind testdata/parent_*.json: the bytes there were written by
// the parent commit's encoding/json path (json.NewEncoder(w).Encode for
// replies, json.Marshal for requests) from exactly these values, so the
// golden tests pin the wire format across versions — what the old server sent
// the new client must read, and the new server must send what the old client
// read.

func goldenResponses() []server.QueryResponse {
	return []server.QueryResponse{
		{IDs: []int64{}},
		{IDs: nil, Epoch: 3},
		{
			IDs:   []int64{0, 7, 19, 4242, 50746, math.MaxInt64, math.MinInt64, -1},
			Epoch: 18446744073709551615,
			Stats: server.QueryStats{
				Retrieved: 353, PrunedFringe: 71, PrunedOR: 12, PrunedBF: 40, AcceptedBF: 9,
				Integrations: 221, NodesRead: 17, IndexNS: 41250, FilterNS: 9120, ProbNS: 318000,
				NodesReadPacked: 17, OverlayScanned: 64, F32Rechecks: 2,
			},
		},
		{
			IDs:   []int64{5},
			Epoch: 12,
			Stats: server.QueryStats{
				Retrieved: 1, IndexNS: -1, SamplesDrawn: 100000, SamplesTouched: 1234,
				CellsSkipped: 9, CellsFullInside: 4, EarlyDecisions: 1,
				TierMix:      &server.TierMix{BF: 1, Envelope: 2, Exact: 3, MC: 4},
				GridFallback: true, BatchQueries: 16, BatchGroups: 1,
			},
			ReplicaEpoch: 12,
		},
		{
			IDs:   []int64{1, 2, 3},
			Epoch: 9,
			Stats: server.QueryStats{Retrieved: 3, TierMix: &server.TierMix{}},
			Routing: &server.RoutingInfo{
				RoutingEpoch: 2, Shards: 4, Fanout: 3, Partial: true,
				FailedShards: []int{1},
				ShardEpochs:  []server.ShardEpoch{{Shard: 0, Epoch: 9}, {Shard: 3, Epoch: 7}},
			},
		},
		{IDs: []int64{}, Routing: &server.RoutingInfo{RoutingEpoch: 1, Shards: 2}},
	}
}

func goldenRequests() []server.QueryRequest {
	s3 := math.Sqrt(3)
	return []server.QueryRequest{
		{Center: []float64{4983.25, 5120.5}, Cov: [][]float64{{70, 20 * s3}, {20 * s3, 30}}, Delta: 25, Theta: 0.01},
		{
			Center: []float64{math.Copysign(0, -1), 1e21, 1e-7, 5e-324}, Cov: [][]float64{{700, 200 * s3}, {200 * s3, 300}},
			Delta: 5, Theta: 0.3, Strategy: "RR+BF", TargetCov: [][]float64{{1, 0}, {0, 1}},
			TimeoutMS: 1500, AllowPartial: true,
		},
		{Center: nil, Cov: [][]float64{nil, {}}, Strategy: "a<b>&\"\\é"},
	}
}
