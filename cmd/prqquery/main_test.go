package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/server"
)

func TestParseVector(t *testing.T) {
	v, err := parseVector("1, 2.5 ,-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || v[0] != 1 || v[1] != 2.5 || v[2] != -3 {
		t.Errorf("parseVector = %v", v)
	}
	if _, err := parseVector("1,abc"); err == nil {
		t.Error("bad component accepted")
	}
}

func TestParseMatrix(t *testing.T) {
	m, err := parseMatrix("1,2;3,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1][0] != 3 {
		t.Errorf("parseMatrix = %v", m)
	}
	if _, err := parseMatrix("1,2;x,4"); err == nil {
		t.Error("bad row accepted")
	}
}

func writeTestCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.csv")
	csv := "500,500\n510,505\n900,900\n495,498\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseOpts(path string) runOpts {
	return runOpts{
		path:     path,
		center:   "500,500",
		cov:      "70,34.6;34.6,30",
		delta:    25,
		theta:    0.01,
		strategy: "ALL",
	}
}

func TestRunEndToEnd(t *testing.T) {
	path := writeTestCSV(t)
	var out bytes.Buffer

	o := baseOpts(path)
	o.verbose = true
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	o = baseOpts(filepath.Join(t.TempDir(), "missing.csv"))
	if err := run(o, &out); err == nil {
		t.Error("missing file accepted")
	}
	o = baseOpts(path)
	o.center = "bad"
	if err := run(o, &out); err == nil {
		t.Error("bad center accepted")
	}
	o = baseOpts(path)
	o.cov = "bad"
	if err := run(o, &out); err == nil {
		t.Error("bad covariance accepted")
	}
	o = baseOpts(path)
	o.strategy = "NOPE"
	if err := run(o, &out); err == nil {
		t.Error("bad strategy accepted")
	}
	// Already-expired -timeout must abort the query with an error.
	o = baseOpts(path)
	o.timeout = time.Nanosecond
	if err := run(o, &out); err == nil {
		t.Error("expired timeout accepted")
	}
	// Top-k and PNN modes.
	o = baseOpts(path)
	o.topK = 2
	if err := run(o, &out); err != nil {
		t.Fatalf("topk: %v", err)
	}
	o = baseOpts(path)
	o.cov, o.theta, o.pnn = "25,0;0,25", 0.05, true
	if err := run(o, &out); err != nil {
		t.Fatalf("pnn: %v", err)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeTestCSV(t)
	var out bytes.Buffer
	o := baseOpts(path)
	o.jsonOut = true
	o.verbose = true
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	var got jsonOutput
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if got.Points != 4 || got.Dim != 2 {
		t.Errorf("dataset = %d points %d-D", got.Points, got.Dim)
	}
	if len(got.IDs) == 0 || got.Stats == nil || got.Stats.Retrieved == 0 {
		t.Errorf("JSON output incomplete: %+v", got)
	}
	if len(got.Answers) != len(got.IDs) {
		t.Errorf("answers = %d, ids = %d", len(got.Answers), len(got.IDs))
	}

	// -json rejects the non-range modes.
	o = baseOpts(path)
	o.jsonOut, o.topK = true, 3
	if err := run(o, &out); err == nil {
		t.Error("-json -topk accepted")
	}
	o = baseOpts(path)
	o.jsonOut, o.pnn = true, true
	if err := run(o, &out); err == nil {
		t.Error("-json -pnn accepted")
	}
}

// TestServerModeMatchesLocal answers the same query locally and through a
// prqserved-equivalent server and diffs the -json answer IDs.
func TestServerModeMatchesLocal(t *testing.T) {
	path := writeTestCSV(t)
	pts := [][]float64{{500, 500}, {510, 505}, {900, 900}, {495, 498}}
	db, err := gaussrange.Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var localOut, servedOut bytes.Buffer
	local := baseOpts(path)
	local.jsonOut = true
	if err := run(local, &localOut); err != nil {
		t.Fatal(err)
	}
	remote := baseOpts("")
	remote.serverURL = ts.URL
	remote.jsonOut = true
	remote.verbose = true
	if err := run(remote, &servedOut); err != nil {
		t.Fatal(err)
	}

	var localRes, servedRes jsonOutput
	if err := json.Unmarshal(localOut.Bytes(), &localRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(servedOut.Bytes(), &servedRes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localRes.IDs, servedRes.IDs) {
		t.Errorf("local IDs %v != served IDs %v", localRes.IDs, servedRes.IDs)
	}
	if len(servedRes.Answers) != len(servedRes.IDs) {
		t.Errorf("served -v answers = %d, want %d", len(servedRes.Answers), len(servedRes.IDs))
	}

	// Unsupported flag combinations in server mode.
	for _, mod := range []func(*runOpts){
		func(o *runOpts) { o.topK = 1 },
		func(o *runOpts) { o.pnn = true },
	} {
		o := baseOpts("")
		o.serverURL = ts.URL
		mod(&o)
		if err := run(o, &servedOut); err == nil {
			t.Error("unsupported server-mode flag combination accepted")
		}
	}
}
