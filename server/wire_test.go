package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"gaussrange/internal/experiments"
	"gaussrange/server"
)

// mustAppend encodes v with the hand-written encoder.
func mustAppend(t testing.TB, v any) []byte {
	t.Helper()
	b, err := server.AppendJSON(nil, v)
	if err != nil {
		t.Fatalf("AppendJSON(%+v): %v", v, err)
	}
	return b
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	return b
}

// randResponse draws a QueryResponse in which every field — each omitempty
// one in particular — is zero about half the time.
func randResponse(r *rand.Rand) server.QueryResponse {
	num := func() int {
		switch r.Intn(4) {
		case 0, 1:
			return 0
		case 2:
			return r.Intn(1000)
		default:
			return int(r.Int63()) - r.Intn(2)*math.MaxInt64
		}
	}
	resp := server.QueryResponse{Epoch: uint64(num()), ReplicaEpoch: uint64(num())}
	switch r.Intn(4) {
	case 0:
		// nil ids
	case 1:
		resp.IDs = []int64{}
	default:
		resp.IDs = make([]int64, r.Intn(300))
		for i := range resp.IDs {
			resp.IDs[i] = int64(num())
		}
	}
	resp.Stats = server.QueryStats{
		Retrieved: num(), PrunedFringe: num(), PrunedOR: num(), PrunedBF: num(), AcceptedBF: num(),
		Integrations: num(), NodesRead: num(), IndexNS: int64(num()), FilterNS: int64(num()), ProbNS: int64(num()),
		NodesReadPacked: num(), OverlayScanned: num(), F32Rechecks: num(),
	}
	if r.Intn(2) == 0 {
		info := &server.RoutingInfo{RoutingEpoch: uint64(num()), Shards: num(), Fanout: num(), Partial: r.Intn(2) == 0}
		switch r.Intn(3) {
		case 1:
			info.FailedShards = []int{}
		case 2:
			info.FailedShards = []int{num(), num()}
		}
		switch r.Intn(3) {
		case 1:
			info.ShardEpochs = []server.ShardEpoch{}
		case 2:
			info.ShardEpochs = []server.ShardEpoch{{Shard: num(), Epoch: uint64(num())}, {Shard: num(), Epoch: uint64(num())}}
		}
		resp.Routing = info
	}
	if r.Intn(3) == 0 {
		resp = resp.InFormat(server.IDsFormatDV1)
	}
	return resp
}

// TestQueryResponseAppendMatchesEncodingJSON is the encoder's contract: for
// every field at zero and non-zero, the hand-written encoder and encoding/json
// produce the same bytes — for a response, a batch of them, and through
// WriteJSON (which adds Encode's trailing newline).
func TestQueryResponseAppendMatchesEncodingJSON(t *testing.T) {
	cases := goldenResponses()
	cases = append(cases,
		server.QueryResponse{},
		server.QueryResponse{IDs: []int64{math.MinInt64}},
		server.QueryResponse{IDs: []int64{math.MaxInt64}, Stats: server.QueryStats{F32Rechecks: 1}},
		server.QueryResponse{Routing: &server.RoutingInfo{FailedShards: []int{}, ShardEpochs: []server.ShardEpoch{}}},
		server.QueryResponse{Routing: &server.RoutingInfo{FailedShards: []int{3, 1, 2}}},
		server.QueryResponse{ReplicaEpoch: math.MaxUint64},
	)
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 500; i++ {
		cases = append(cases, randResponse(r))
	}
	for i, resp := range cases {
		want := mustMarshal(t, resp)
		if got := mustAppend(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("case %d: value\n got  %s\n want %s", i, got, want)
		}
		if got := mustAppend(t, &resp); !bytes.Equal(got, want) {
			t.Fatalf("case %d: pointer\n got  %s\n want %s", i, got, want)
		}
		rec := httptest.NewRecorder()
		server.WriteJSON(rec, http.StatusOK, resp)
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("case %d: WriteJSON\n got  %q\n want %q", i, got, want)
		}
	}
	for _, batch := range []server.BatchResponse{{}, {Results: []server.QueryResponse{}}, {Results: cases[:8]}, {Results: cases}} {
		want := mustMarshal(t, batch)
		if got := mustAppend(t, batch); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d: value differs", len(batch.Results))
		}
		if got := mustAppend(t, &batch); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d: pointer differs", len(batch.Results))
		}
	}
	// Nil pointers and every other type take encoding/json's path.
	for _, v := range []any{(*server.QueryResponse)(nil), (*server.BatchResponse)(nil), (*server.QueryRequest)(nil),
		server.ErrorResponse{Error: "a<b"}, server.Health{Status: "ok"}, map[string]int{"x": 1}} {
		if got, want := mustAppend(t, v), mustMarshal(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%T: got %s want %s", v, got, want)
		}
	}
	// An existing prefix is kept, and a value encoding/json refuses leaves it
	// untouched.
	if b, err := server.AppendJSON([]byte("x="), server.QueryResponse{IDs: []int64{1}}); err != nil || !strings.HasPrefix(string(b), `x={"ids":[1],`) {
		t.Fatalf("prefix lost: %s, %v", b, err)
	}
	nan, inf := math.NaN(), math.Inf(-1)
	for i, req := range []server.QueryRequest{{Delta: nan}, {Theta: inf}, {Center: []float64{1, nan}}, {Cov: [][]float64{{1}, {inf}}}, {TargetCov: [][]float64{{nan}}}} {
		if b, err := server.AppendJSON([]byte("x="), req); err == nil || string(b) != "x=" {
			t.Fatalf("non-finite request %d: got %q, %v; want the prefix and encoding/json's error", i, b, err)
		}
	}
}

// TestQueryRequestAppendMatchesEncodingJSON: the request encoder writes
// json.Marshal's bytes, by value and by pointer, over random float64 bit
// patterns, the float format's edges (1e-7, 1e-6, 1e21, −0, subnormals,
// MaxFloat64), nil and empty slices and strings json.Marshal escapes; a NaN
// or an infinity anywhere fails with json.Marshal's error.
func TestQueryRequestAppendMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	edges := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e21, -1e21, 9.999999999999999e20,
		5e-324, -5e-324, 2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64, 1, 0.01, 25, 1e-10, 123456789.125}
	float := func() float64 {
		if r.Intn(3) == 0 {
			return edges[r.Intn(len(edges))]
		}
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	vec := func(n int) []float64 {
		switch r.Intn(8) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = float()
		}
		return v
	}
	mat := func(n int) [][]float64 {
		switch r.Intn(6) {
		case 0:
			return nil
		case 1:
			return [][]float64{}
		}
		m := make([][]float64, n)
		for i := range m {
			m[i] = vec(n)
		}
		return m
	}
	strs := []string{"", "", "ALL", "RR+BF", server.IDsFormatDV1, "a<b", "x&y", `"q"`, `back\slash`, "tab\t", "é", "\x7f", "\xff"}
	for i := 0; i < 3000; i++ {
		d := 1 + r.Intn(3)
		req := server.QueryRequest{
			Center: vec(d), Cov: mat(d), Delta: float(), Theta: float(),
			Strategy: strs[r.Intn(len(strs))], TargetCov: mat(d), TimeoutMS: r.Int63n(3) * r.Int63(),
			AllowPartial: r.Intn(2) == 0, IDsFormat: strs[r.Intn(len(strs))],
		}
		want := mustMarshal(t, req)
		if got := mustAppend(t, req); !bytes.Equal(got, want) {
			t.Fatalf("case %d: value\n got  %s\n want %s", i, got, want)
		}
		if got := mustAppend(t, &req); !bytes.Equal(got, want) {
			t.Fatalf("case %d: pointer\n got  %s\n want %s", i, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, req := range []server.QueryRequest{{Delta: bad}, {Center: []float64{1, bad}}, {Cov: [][]float64{{1}, {2, bad}}}, {TargetCov: [][]float64{{bad}}, Strategy: "a<b"}} {
			_, want := json.Marshal(req)
			if b, err := server.AppendJSON([]byte("x="), &req); err == nil || err.Error() != want.Error() || string(b) != "x=" {
				t.Fatalf("%v in request %d: got %q, %v; want the prefix and %v", bad, i, b, err, want)
			}
		}
	}
}

// TestWriteJSONFraming checks the reply framing: one Write carrying the whole
// body, and a Content-Length that matches it.
func TestWriteJSONFraming(t *testing.T) {
	for _, v := range []any{goldenResponses()[2], server.Health{Status: "ok", Points: 5}, server.ErrorResponse{Error: "boom"}} {
		w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
		server.WriteJSON(w, http.StatusTeapot, v)
		want := append(mustMarshal(t, v), '\n')
		if w.writes != 1 || !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%T: %d writes, body %q; want 1 write of %q", v, w.writes, w.Body.Bytes(), want)
		}
		if got := w.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Errorf("%T: Content-Length %q, want %d", v, got, len(want))
		}
		if w.Code != http.StatusTeapot || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%T: status %d, type %q", v, w.Code, w.Header().Get("Content-Type"))
		}
	}
	// A value encoding/json refuses is a 500 with an error body, not a
	// header promising a body that never comes.
	rec := httptest.NewRecorder()
	server.WriteJSON(rec, http.StatusOK, server.ProbResponse{Probability: math.NaN()})
	var er server.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Errorf("unencodable value: status %d, body %q", rec.Code, rec.Body.Bytes())
	}
}

type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// floatBits flattens every float of a request to its bit pattern:
// reflect.DeepEqual alone would call -0 and 0 equal.
func floatBits(r server.QueryRequest) []uint64 {
	bits := []uint64{math.Float64bits(r.Delta), math.Float64bits(r.Theta)}
	rows := append(append([][]float64{r.Center}, r.Cov...), r.TargetCov...)
	for _, row := range rows {
		for _, f := range row {
			bits = append(bits, math.Float64bits(f))
		}
	}
	return bits
}

// checkDecodeAgrees is the decoder's contract on one input: server.Unmarshal
// and json.Unmarshal fail together with the same message, or succeed with
// the same value. It reports whether the input decoded.
func checkDecodeAgrees[T any](t *testing.T, data []byte, bits func(T) []uint64) bool {
	t.Helper()
	var got, want T
	gotErr, wantErr := server.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("input %q: server.Unmarshal error %v, json.Unmarshal error %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\n server.Unmarshal %+v\n json.Unmarshal   %+v", data, got, want)
	}
	if bits != nil && !reflect.DeepEqual(bits(got), bits(want)) {
		t.Fatalf("input %q: float bits differ", data)
	}
	return gotErr == nil
}

// responseSeeds are inputs chosen to sit on every edge of the fast parser's
// grammar: the canonical form, legal JSON the parser must hand over (unknown,
// repeated, escaped and case-folded keys; null; floats and exponents where
// integers belong; out-of-range integers; whitespace) and malformed text.
var responseSeeds = []string{
	`{"ids":[1,2,3],"epoch":4,"stats":{"retrieved":3}}`,
	`{"ids":[,,,,]}`, `{"routing":{"shard_epochs":[,,,,]}}`,
	`{"ids":[],"epoch":0,"stats":{}}`,
	` { "ids" : [ 1 , -2 ] , "epoch" : 7 , "stats" : { "tier_mix" : { "bf" : 1 } } } ` + "\r\n\t",
	`{"ids":null}`, `null`, `{}`, ``, `{`, `[]`, `{"ids":[1,]}`, `{"ids":[,1]}`, `{"ids":[1 2]}`, `{,}`, `{"ids":[1],}`,
	`{"ids":[1],"ids":[2]}`, `{"stats":{"retrieved":1,"retrieved":2}}`, `{"stats":{"retrieved":1},"stats":{"pruned_or":2}}`,
	`{"IDS":[1],"Epoch":2}`, `{"i\u0064s":[1]}`, `{"ids\"":[1]}`, `{"unknown":{"a":[1,{"b":null}]},"ids":[9]}`,
	`{"ids":[1.0]}`, `{"ids":[1e2]}`, `{"ids":[01]}`, `{"ids":[-]}`, `{"ids":[-0]}`, `{"ids":[+1]}`, `{"ids":["1"]}`,
	`{"ids":[9223372036854775807,-9223372036854775808]}`, `{"ids":[9223372036854775808]}`, `{"ids":[-9223372036854775809]}`,
	`{"ids":[99999999999999999999]}`, `{"epoch":18446744073709551615}`, `{"epoch":18446744073709551616}`, `{"epoch":-0}`, `{"epoch":-1}`,
	`{"epoch":1.5}`, `{"stats":{"grid_fallback":true}}`, `{"stats":{"grid_fallback":1}}`, `{"stats":{"grid_fallback":truex}}`,
	`{"stats":{"tier_mix":{"bf":1},"tier_mix":{"mc":2}}}`, `{"routing":{"shards":1},"routing":{"fanout":2}}`, `{"stats":{"tier_mix":null}}`, `{"stats":null}`, `{"routing":null}`, `{"routing":{}}`,
	`{"routing":{"routing_epoch":1,"shards":2,"fanout":1,"partial":true,"failed_shards":[1],"shard_epochs":[{"shard":0,"epoch":5}]}}`,
	`{"routing":{"failed_shards":[],"shard_epochs":[]}}`, `{"routing":{"shard_epochs":[{"shard":0,"shard":1}]}}`,
	`{"routing":{"shard_epochs":[null]}}`, `{"routing":{"shard_epochs":[{"shard":1,"epoch":2},{"shard":3},{}]}}`, `{"replica_epoch":3}`, `{"ids":[1]} x`, `{"ids":[1]}{"ids":[2]}`, `{"ids":[1]}` + "\x00",
	`{"ids":[1],"epoch":2,"stats":{"retrieved":9}`, "\xef\xbb\xbf{}", `{"ids":[1]`, `{"ids":[`, `{"ids"`, `{"ids":`, `{"stats":{"index_ns":-5}}`,
	`{"ids":null,"ids_dv1":"AwICAg==","epoch":9,"stats":{"retrieved":3}}`, `{"ids_dv1":null}`, `{"ids_dv1":"AA=="}`, `{"ids":nul}`,
	`{"ids":[1],"ids_dv1":"AQI="}`, `{"ids_dv1":"AQI=","ids_dv1":"AQI="}`, `{"ids_dv1":"AQ\u0049="}`, `{"ids_dv1":"AQI"}`, `{"ids_dv1":"AQI=`,
	`{"ids_dv1":"AQI=" }`, `{"ids_dv1":"A\"QI="}`, `{"ids_dv1":[1]}`, `{"ids_dv1":"AQJ="}`, `{"ids_dv1":"Ag=="}`, `{"IDS_DV1":"AQI="}`,
}

var requestSeeds = []string{
	`{"center":[1,2],"cov":[[1,0],[0,1]],"delta":1,"theta":0.5}`,
	`{"cov":[,,,,]}`, `{"center":[,,,,]}`,
	` {"center" : [ 1.5e3 , -2E-2 ] , "cov":[[1,0.5],[0.5,1]] ,"delta":25,"theta":1e-2,"strategy":"ALL","timeout_ms":50,"allow_partial":false} `,
	`{"center":[],"cov":[],"target_cov":[[]]}`, `{"center":null,"cov":[null]}`, `{"center":[-0,0,1e21,1e-7,5e-324,1e999]}`,
	`{"center":[01]}`, `{"center":[1.]}`, `{"center":[.5]}`, `{"center":[1e]}`, `{"center":[1e+]}`, `{"center":[-]}`, `{"center":[0x10]}`, `{"center":[1_0]}`,
	`{"center":[NaN]}`, `{"center":[Infinity]}`, `{"delta":"1"}`, `{"delta":1,"delta":2}`, `{"strategy":"a\nb"}`, `{"strategy":"a\\nb"}`,
	`{"strategy":"é"}`, "{\"strategy\":\"\xff\"}", `{"strategy":"<>&"}`, `{"strategy":"a"b"}`, `{"strategy":null}`, `{"strategy":5}`,
	`{"timeout_ms":1.5}`, `{"timeout_ms":1e3}`, `{"timeout_ms":-7}`, `{"allow_partial":"true"}`, `{"Center":[1]}`, `{"queries":[]}`,
	`{"center":[1,2]}{"center":[3]}`, `{"center":[1,2]} garbage`, `{"center":[[1]]}`, `{"cov":[1]}`, `{"cov":[[1],[2,3]],"cov":[[4]]}`, ``, `{`, `[1]`,
	`{"center":[1,2],"cov":[[1,0],[0,1]],"delta":1,"theta":0.5,"ids_format":"dv1"}`, `{"ids_format":"DV1"}`, `{"ids_format":"dv2"}`, `{"ids_format":""}`,
	`{"ids_format":null}`, `{"ids_format":1}`, `{"ids_format":"dv1","ids_format":"dv1"}`, `{"ids_format":"d\u00761"}`,
}

func TestUnmarshalAgreesWithEncodingJSON(t *testing.T) {
	for _, s := range responseSeeds {
		checkDecodeAgrees[server.QueryResponse](t, []byte(s), nil)
	}
	for _, s := range requestSeeds {
		checkDecodeAgrees(t, []byte(s), floatBits)
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		if data := mustMarshal(t, randResponse(r)); !checkDecodeAgrees[server.QueryResponse](t, data, nil) {
			t.Fatalf("encoded response %s does not decode", data)
		}
	}
	// A destination that is not the zero value keeps encoding/json's merge
	// semantics (absent fields survive).
	resp := server.QueryResponse{Epoch: 5, Stats: server.QueryStats{Retrieved: 2}}
	if err := server.Unmarshal([]byte(`{"ids":[1]}`), &resp); err != nil || resp.Epoch != 5 || resp.Stats.Retrieved != 2 || len(resp.IDs) != 1 {
		t.Errorf("merge into a non-zero response: %+v, %v", resp, err)
	}
	req := server.QueryRequest{Theta: 0.5}
	if err := server.Unmarshal([]byte(`{"delta":2}`), &req); err != nil || req.Theta != 0.5 || req.Delta != 2 {
		t.Errorf("merge into a non-zero request: %+v, %v", req, err)
	}
}

// FuzzQueryResponseDecode and FuzzQueryRequestDecode run the decoder
// contract over arbitrary bytes: the /v1/query body (and reply) fuzzers.
func FuzzQueryResponseDecode(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	for _, resp := range goldenResponses() {
		f.Add(mustMarshal(f, resp))
		f.Add(mustMarshal(f, resp.InFormat(server.IDsFormatDV1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees[server.QueryResponse](t, data, nil)
	})
}

func FuzzQueryRequestDecode(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	for _, req := range goldenRequests() {
		f.Add(mustMarshal(f, req))
		req.IDsFormat = server.IDsFormatDV1
		f.Add(mustMarshal(f, req))
		req.TimeoutMS = 30000 // what a client with a deadline sends
		f.Add(mustAppend(f, req))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, data, floatBits)
	})
}

// TestRequestFloatsRoundTripBits: what the client sends (json.Marshal's
// shortest round-trip floats) the single-pass parser reads back to the same
// bits — the plan cache fingerprints Σ's bits, so a drifting last digit would
// turn every repeat query into a plan-cache miss.
func TestRequestFloatsRoundTripBits(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 25, 0.01, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 9.999999999999999e20, 1e21 + 131072, 1e-6, 9.999999999999999e-7,
		1e-7, 1e-10, 1.5e-9, 1e22, 1e100, 1e-100, 123456789.125, 4983.253916, math.Pi, math.Nextafter(1, 2), math.Nextafter(1, 0),
	}
	base := experiments.PaperSigmaBase()
	for _, gamma := range []float64{1, 10, 100} {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				floats = append(floats, gamma*base.At(i, j))
			}
		}
	}
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()), r.NormFloat64()*math.Pow(10, float64(r.Intn(60)-30)))
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		req := server.QueryRequest{Center: []float64{f, -f}, Cov: [][]float64{{f, 1}, {1, f}}, Delta: f, Theta: f, TargetCov: [][]float64{{f}}}
		sent := mustMarshal(t, req)
		var back server.QueryRequest
		if err := server.Unmarshal(sent, &back); err != nil {
			t.Fatalf("%g: decoding %s: %v", f, sent, err)
		}
		if !reflect.DeepEqual(floatBits(back), floatBits(req)) {
			t.Fatalf("%g (bits %#x) does not survive the wire: sent %s, got back %+v", f, math.Float64bits(f), sent, back)
		}
	}
	// The other request fields, and strings only encoding/json's unescaper
	// reads.
	for _, req := range append(goldenRequests(),
		server.QueryRequest{Strategy: "BF+OR", TimeoutMS: -3, AllowPartial: true},
		server.QueryRequest{Strategy: "tab\there"}, server.QueryRequest{Strategy: "\x7f"}, server.QueryRequest{Strategy: "\u2028"},
		server.QueryRequest{Center: []float64{}, Cov: [][]float64{}, TargetCov: [][]float64{}},
	) {
		if sent := mustMarshal(t, req); !checkDecodeAgrees(t, sent, floatBits) {
			t.Fatalf("request %s does not decode", sent)
		}
	}
}

func readLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// TestWireGoldenAcrossVersions pins the format against bytes the parent
// commit's encoding/json path produced (see wire_golden_test.go): the new
// encoder writes them, and the new decoder reads them to the same values. A
// reply that carries a removed QueryStats key is only read: it must decode to
// the value without that field.
func TestWireGoldenAcrossVersions(t *testing.T) {
	lines := readLines(t, "testdata/parent_query_responses.jsonl")
	responses := goldenResponses()
	if len(lines) != len(responses) {
		t.Fatalf("%d golden lines for %d responses", len(lines), len(responses))
	}
	legacy := 0
	for i, resp := range responses {
		line := append(bytes.TrimSuffix(lines[i], []byte("\n")), '\n')
		if carriesRemovedKey(line) {
			legacy++
		} else {
			rec := httptest.NewRecorder()
			server.WriteJSON(rec, http.StatusOK, resp)
			if !bytes.Equal(rec.Body.Bytes(), line) {
				t.Errorf("response %d: new encoder\n got  %s\n want %s", i, rec.Body.Bytes(), line)
			}
		}
		var got server.QueryResponse
		if err := server.Unmarshal(line, &got); err != nil || !reflect.DeepEqual(got, resp) {
			t.Errorf("response %d: new decoder read %+v (%v), want %+v", i, got, err, resp)
		}
	}
	if legacy == 0 {
		t.Error("no golden response carries a removed key: the old-server case is untested")
	}

	batch, err := os.ReadFile("testdata/parent_batch_response.json")
	if err != nil {
		t.Fatal(err)
	}
	var gotBatch server.BatchResponse
	if err := server.Unmarshal(batch, &gotBatch); err != nil || !reflect.DeepEqual(gotBatch.Results, responses) {
		t.Errorf("batch: new decoder read %+v (%v), want %+v", gotBatch.Results, err, responses)
	}

	reqLines := readLines(t, "testdata/parent_query_requests.jsonl")
	requests := goldenRequests()
	if len(reqLines) != len(requests) {
		t.Fatalf("%d golden lines for %d requests", len(reqLines), len(requests))
	}
	for i, req := range requests {
		line := bytes.TrimSuffix(reqLines[i], []byte("\n"))
		if got := mustAppend(t, req); !bytes.Equal(got, line) {
			t.Errorf("request %d: new encoder\n got  %s\n want %s", i, got, line)
		}
		var got server.QueryRequest
		if err := server.Unmarshal(line, &got); err != nil || !reflect.DeepEqual(floatBits(got), floatBits(req)) || got.Strategy != req.Strategy ||
			got.TimeoutMS != req.TimeoutMS || got.AllowPartial != req.AllowPartial {
			t.Errorf("request %d: new decoder read %+v (%v), want %+v", i, got, err, req)
		}
	}
}

// TestTrailingBytesRejected: a POST body is one JSON value. A second value or
// stray bytes after it used to be ignored — the first object ran and the
// reply was 200 — because the streaming decoder stopped at the first value.
func TestTrailingBytesRejected(t *testing.T) {
	db := testDB(t)
	_, ts, _ := newTestServer(t, server.Config{DB: db})
	query := string(mustMarshal(t, server.RequestFromSpec(testSpec(db, "ALL"))))
	bodies := map[string]string{
		"/v1/query":       query,
		"/v1/query/batch": `{"queries":[` + query + `]}`,
		"/v1/prob":        strings.TrimSuffix(query, "}") + `,"id":3}`,
		"/v1/points":      `{"points":[[1,2]]}`,
	}
	for path, body := range bodies {
		for _, tc := range []struct {
			name, body string
			want       int
		}{
			{"second value", body + body, http.StatusBadRequest},
			{"garbage", body + "garbage", http.StatusBadRequest},
			{"stray closer", body + " }", http.StatusBadRequest},
			{"whitespace", " " + body + " \r\n\t", http.StatusOK},
			{"exact", body, http.StatusOK},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var er server.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s, %s: status %d (%s), want %d", path, tc.name, resp.StatusCode, er.Error, tc.want)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(er.Error, "decoding request body") {
				t.Errorf("%s, %s: error %q does not name the body", path, tc.name, er.Error)
			}
		}
	}
	// The rejected inserts inserted nothing: two accepted bodies, two points.
	if got, want := db.Len(), 2002; got != want {
		t.Errorf("db holds %d points after the rejected inserts, want %d", got, want)
	}
}

// TestReadBody covers the shapes of a body read through the pool: declared
// length, unknown length, and a peer that sends more, or far less, than it
// declared (readBody's sizing is pinned in wire_internal_test.go).
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 500)
	for _, declared := range []int64{int64(len(body)), -1, 10, 0, 1 << 40} {
		got, release, err := server.ReadBody(bytes.NewReader(body), declared)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("declared %d: read %d bytes, %v", declared, len(got), err)
		}
		release()
	}
	// A failed read still hands back what arrived and a release to call.
	got, release, err := server.ReadBody(io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrUnexpectedEOF)), -1)
	if err != io.ErrUnexpectedEOF || !bytes.Equal(got, body) {
		t.Errorf("torn body: read %d bytes, %v", len(got), err)
	}
	release()
}

// responseWithIDs is a bench-shaped reply: n ascending ids in the
// dataset's range plus the stats a packed-front-half query reports.
func responseWithIDs(n int) server.QueryResponse {
	r := rand.New(rand.NewSource(int64(n)))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i*250 + r.Intn(250))
	}
	return server.QueryResponse{IDs: ids, Epoch: 1, Stats: server.QueryStats{
		Retrieved: 2 * n, PrunedFringe: n / 2, PrunedBF: n / 3, AcceptedBF: n / 4, Integrations: n, NodesRead: 21,
		IndexNS: 18400, FilterNS: 9100, ProbNS: 61000, NodesReadPacked: 21,
	}}
}

// BenchmarkWireCodec measures one reply's trip through the codec at the two
// answer sizes the serving benchmark sees (≈200 ids on coarse_read and
// tight_read, ≈350 on paper_read), next to encoding/json on the same value,
// with the ids as the decimal array and (the dv1 arms) as one block.
// allocs/op is the number to watch: the hand-written paths are 0 (encode into
// a reused buffer) and 3 (decode: the ids slice, the parser's 32-byte cursor,
// and the destination escaping to the heap).
func BenchmarkWireCodec(b *testing.B) {
	for _, n := range []int{200, 350} {
		resp := responseWithIDs(n)
		data := mustMarshal(b, resp)
		name := strconv.Itoa(n) + "ids"
		block := resp.InFormat(server.IDsFormatDV1)
		blockData := mustMarshal(b, block)
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = server.AppendJSON(buf[:0], &resp)
			}
		})
		b.Run("encode-dv1/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blockData)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = server.AppendJSON(buf[:0], &block)
			}
		})
		b.Run("decode-dv1/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blockData)))
			for i := 0; i < b.N; i++ {
				var out server.QueryResponse
				if err := server.Unmarshal(blockData, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode-json/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				json.Marshal(&resp)
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var out server.QueryResponse
				if err := server.Unmarshal(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode-json/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var out server.QueryResponse
				if err := json.Unmarshal(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWriteJSONSharedContentType: every reply's Content-Type is one shared
// header value, so a handler adding to its own header must get a copy — two
// replies that each add a value must not write into one shared array.
func TestWriteJSONSharedContentType(t *testing.T) {
	var recs [2]*httptest.ResponseRecorder
	for i, extra := range []string{"text/plain", "text/html"} {
		recs[i] = httptest.NewRecorder()
		server.WriteJSON(recs[i], http.StatusOK, server.Health{Status: "ok"})
		recs[i].Header().Add("Content-Type", extra)
	}
	for i, extra := range []string{"text/plain", "text/html"} {
		if got := recs[i].Header()["Content-Type"]; !reflect.DeepEqual(got, []string{"application/json", extra}) {
			t.Errorf("reply %d's Content-Type %q, want [application/json %s]", i, got, extra)
		}
	}
}
