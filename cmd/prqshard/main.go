// Command prqshard splits a point dataset into K spatial shards: it tiles
// the points with the same STR partitioner the R-tree uses for bulk
// loading, writes one id-addressed snapshot per shard (loadable with
// prqserved -snapshot) and the shard map JSON that prqserved -router needs
// to route queries and mutations.
//
// Usage:
//
//	prqshard -csv points.csv -k 4 -out DIR
//
// Flags:
//
//	-csv PATH   input points (same CSV format as prqserved/datagen)
//	-k N        shard count (default 4)
//	-out DIR    output directory (created if absent); receives
//	            shardmap.json and shard-<id>.grdb
//	-page N     R-tree page size for the per-shard indexes (0 = default)
//
// The global id of every point is its zero-based position in the input
// file, so routed answers are comparable with an unsharded server loaded
// from the same CSV.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/shard"
)

func main() {
	csvPath := flag.String("csv", "", "input points CSV")
	k := flag.Int("k", 4, "shard count")
	out := flag.String("out", "", "output directory")
	page := flag.Int("page", 0, "R-tree page size (0 = default)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prqshard -csv points.csv -k N -out DIR\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(*csvPath, *k, *out, *page, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "prqshard: %v\n", err)
		os.Exit(1)
	}
}

func run(csvPath string, k int, out string, page int, logw *os.File) error {
	if csvPath == "" || out == "" {
		return fmt.Errorf("-csv and -out are required")
	}
	pts, err := data.LoadCSV(csvPath)
	if err != nil {
		return err
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	m, parts, err := shard.Split(raw, k)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var opts []gaussrange.Option
	if page > 0 {
		opts = append(opts, gaussrange.WithPageSize(page))
	}
	for i, part := range parts {
		db, err := gaussrange.LoadWithIDs(part.Points, part.IDs, opts...)
		if err != nil {
			return fmt.Errorf("building shard %d: %w", i, err)
		}
		path := filepath.Join(out, fmt.Sprintf("shard-%d.grdb", i))
		if err := db.SaveFile(path); err != nil {
			return fmt.Errorf("writing shard %d: %w", i, err)
		}
		fmt.Fprintf(logw, "prqshard: shard %d: %d points, ids [%d, %d] -> %s\n",
			i, m.Shards[i].Points, m.Shards[i].IDMin, m.Shards[i].IDMax, path)
	}
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	mapPath := filepath.Join(out, "shardmap.json")
	if err := os.WriteFile(mapPath, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(logw, "prqshard: %d points -> %d shards, map %s (routing epoch %d)\n",
		len(raw), k, mapPath, m.RoutingEpoch)
	return nil
}
