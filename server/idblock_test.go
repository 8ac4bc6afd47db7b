package server_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/server"
)

// blockReference is the dv1 block of ids written the long way, with
// encoding/binary and encoding/base64: the encoder's oracle.
func blockReference(ids []int64) string {
	raw := binary.AppendUvarint(nil, uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		d := id - prev
		raw = binary.AppendUvarint(raw, uint64(d<<1)^uint64(d>>63))
		prev = id
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// blockCases are id lists on every edge of the block: empty, the int64
// extremes and the deltas between them that wrap, unsorted and repeated ids,
// every varint length, and an answer-shaped run.
func blockCases() [][]int64 {
	cases := [][]int64{
		{}, {0}, {1}, {-1}, {63}, {64}, {-64}, {-65}, {math.MaxInt64}, {math.MinInt64},
		{math.MaxInt64, math.MinInt64}, {math.MinInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64},
		{5, 5, 5}, {3, 1, 2}, {-7, 0, -7, 1 << 40, -(1 << 50)},
	}
	var lengths []int64
	for shift := 0; shift < 64; shift += 7 {
		lengths = append(lengths, 1<<shift-1, 1<<shift, -1<<shift)
	}
	cases = append(cases, lengths)
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 3, 4, 200, 344, 5000} {
		ids := make([]int64, n)
		next := int64(r.Intn(100))
		for i := range ids {
			ids[i] = next
			next += 1 + int64(r.Intn(300))
		}
		cases = append(cases, ids)
	}
	return cases
}

// TestIDBlockRoundTrip: the encoder writes the reference block, both decoders
// read it back bit for bit into a slice of exactly its length, and a reply
// carrying it still encodes as json.Marshal does.
func TestIDBlockRoundTrip(t *testing.T) {
	for i, ids := range blockCases() {
		want := `"` + blockReference(ids) + `"`
		got, err := json.Marshal(server.IDBlock(ids))
		if err != nil || string(got) != want {
			t.Fatalf("case %d: MarshalJSON %s (%v), want %s", i, got, err, want)
		}
		var back server.IDBlock
		if err := json.Unmarshal(got, &back); err != nil || !slices.Equal(back, ids) || cap(back) != len(ids) || back == nil {
			t.Fatalf("case %d: UnmarshalJSON read %v (cap %d, %v), want %v", i, back, cap(back), err, ids)
		}
		resp := server.QueryResponse{IDsDV1: ids, Epoch: 3}
		if got, want := mustAppend(t, resp), mustMarshal(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("case %d: AppendJSON\n got  %s\n want %s", i, got, want)
		}
		data := mustMarshal(t, resp)
		if !checkDecodeAgrees[server.QueryResponse](t, data, nil) {
			t.Fatalf("case %d: %s does not decode", i, data)
		}
		var out server.QueryResponse
		if err := server.Unmarshal(data, &out); err != nil || !slices.Equal(out.AnswerIDs(), ids) || cap(out.IDsDV1) != len(out.IDsDV1) {
			t.Fatalf("case %d: Unmarshal read %v (%v), want %v", i, out.IDsDV1, err, ids)
		}
	}
	if b, err := json.Marshal(server.IDBlock(nil)); err != nil || string(b) != "null" {
		t.Errorf("nil block marshals as %s, %v", b, err)
	}
}

// badBlocks are block values both decoders must refuse, and escaped forms
// only encoding/json reads.
var badBlocks = []string{
	`""`, `"A"`, `"AA"`, `"AA="`, `"AAA"`, `"AAAAA"`, `"===="`, `"A==="`, `"AA=A"`, `"AA==AA=="`, `"AA==    "`,
	`"AB=="`, `"AAB="`, `"AQ=="`, `"AAA="`, `"gA=="`, `"AA-="`, `"A A="`, "\"AA=\u00e9\"", `"AA\n="`,
	`"` + base64.StdEncoding.EncodeToString([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}) + `"`,
	`"` + base64.StdEncoding.EncodeToString([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}) + `"`,
	`"` + base64.StdEncoding.EncodeToString([]byte{0xe8, 0x07, 1, 2, 3}) + `"`,
	`"` + base64.StdEncoding.EncodeToString([]byte{2, 1}) + `"`,
	`"` + base64.StdEncoding.EncodeToString([]byte{1, 2, 3}) + `"`,
	`5`, `true`, `[1]`, `{}`, `"A\u0041=="`, `"A\/=="`, `"\u0041\u0041=="`, `"AA=\u003d"`,
}

// TestIDBlockRejects: a malformed block is an error, and the single-pass
// parser hands every such reply, and every escaped block, to encoding/json
// with the same result.
func TestIDBlockRejects(t *testing.T) {
	for _, v := range badBlocks {
		var blk server.IDBlock
		err := json.Unmarshal([]byte(v), &blk)
		if escaped := strings.Contains(v, `\u0041`) || strings.Contains(v, `\u003d`); escaped != (err == nil) {
			t.Errorf("block %s: %v, %v", v, blk, err)
		}
		checkDecodeAgrees[server.QueryResponse](t, []byte(`{"ids":null,"ids_dv1":`+v+`,"epoch":1}`), nil)
	}
	var blk server.IDBlock
	if err := json.Unmarshal([]byte(`"A\u0041=="`), &blk); err != nil || blk == nil || len(blk) != 0 {
		t.Errorf("escaped empty block: %v, %v", blk, err)
	}
}

// TestIDBlockGolden pins the dv1 bytes of goldenResponses() (each block is
// also checked against the reference encoder, so the file is not the
// encoder's word alone), and the new decoder reads them back to the answer.
func TestIDBlockGolden(t *testing.T) {
	lines := readLines(t, "testdata/query_responses_dv1.jsonl")
	responses := goldenResponses()
	if len(lines) != len(responses) {
		t.Fatalf("%d golden lines for %d responses", len(lines), len(responses))
	}
	for i, resp := range responses {
		line := append(bytes.TrimSuffix(lines[i], []byte("\n")), '\n')
		block := resp.InFormat(server.IDsFormatDV1)
		rec := httptest.NewRecorder()
		server.WriteJSON(rec, http.StatusOK, block)
		if !bytes.Equal(rec.Body.Bytes(), line) {
			t.Errorf("response %d:\n got  %s\n want %s", i, rec.Body.Bytes(), line)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatal(err)
		}
		if string(fields["ids"]) != "null" {
			t.Errorf("response %d: ids is %s, want null", i, fields["ids"])
		}
		want := ""
		if len(resp.IDs) > 0 {
			want = `"` + blockReference(resp.IDs) + `"`
		}
		if got := string(fields["ids_dv1"]); got != want {
			t.Errorf("response %d: ids_dv1 %s, want %s", i, got, want)
		}
		var got server.QueryResponse
		if err := server.Unmarshal(line, &got); err != nil || !reflect.DeepEqual(got, block) || !slices.Equal(got.AnswerIDs(), resp.AnswerIDs()) {
			t.Errorf("response %d: decoder read %+v (%v), want %+v", i, got, err, block)
		}
	}
}

// TestPlainRequestsAnsweredAsBefore: a request without ids_format — every
// line the parent client sent — gets the decimal reply it always got, and
// the same request opted in gets the same answer as one block.
func TestPlainRequestsAnsweredAsBefore(t *testing.T) {
	pts := data.LongBeach(1)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	db, err := gaussrange.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, server.Config{DB: db})
	post := func(body []byte) (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	answered := 0
	for i, line := range readLines(t, "testdata/parent_query_requests.jsonl") {
		line = bytes.TrimSuffix(line, []byte("\n"))
		opted := []byte(strings.TrimSuffix(string(line), "}") + `,"ids_format":"dv1"}`)
		status, plain := post(line)
		optStatus, block := post(opted)
		if status != optStatus {
			t.Fatalf("request %d: status %d plain, %d opted in", i, status, optStatus)
		}
		if status != http.StatusOK {
			if !bytes.Equal(plain, block) {
				t.Errorf("request %d: error %s plain, %s opted in", i, plain, block)
			}
			continue
		}
		answered++
		var p, b server.QueryResponse
		if err := json.Unmarshal(plain, &p); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(block, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(plain, []byte(`{"ids":[`)) || bytes.Contains(plain, []byte("ids_dv1")) || !bytes.Equal(plain, append(mustAppend(t, p), '\n')) {
			t.Errorf("request %d: plain reply is not the decimal form:\n%s", i, plain)
		}
		if !bytes.HasPrefix(block, []byte(`{"ids":null,`)) || b.IDs != nil || !slices.Equal(b.AnswerIDs(), p.IDs) {
			t.Errorf("request %d: opted-in reply %s does not carry the plain answer %v", i, block, p.IDs)
		}
	}
	if answered == 0 {
		t.Error("no golden request was answered: the compatible reply is untested")
	}
}

// FuzzIDBlock runs the block codec over arbitrary bytes, two ways: as the
// text of a block, where the single-pass decoder must agree with
// encoding/json (and so with IDBlock.UnmarshalJSON), error or not; and as a
// list of int64s (eight bytes each — unsorted, repeated, extreme), which must
// encode to the reference block and decode back bit for bit.
func FuzzIDBlock(f *testing.F) {
	for _, ids := range blockCases()[:20] {
		f.Add([]byte(blockReference(ids)))
	}
	for _, v := range badBlocks {
		f.Add([]byte(strings.Trim(v, `"`)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees[server.QueryResponse](t, []byte(`{"ids":null,"ids_dv1":"`+string(data)+`"}`), nil)
		checkDecodeAgrees[server.QueryResponse](t, []byte(`{"ids_dv1":`+string(data)+`}`), nil)

		ids := make([]int64, len(data)/8)
		for i := range ids {
			ids[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		enc, err := json.Marshal(server.IDBlock(ids))
		if err != nil || string(enc) != `"`+blockReference(ids)+`"` {
			t.Fatalf("%v: encoded %s (%v)", ids, enc, err)
		}
		var back server.IDBlock
		if err := json.Unmarshal(enc, &back); err != nil || !slices.Equal(back, ids) {
			t.Fatalf("%v: decoded %v (%v)", ids, back, err)
		}
		var resp server.QueryResponse
		if err := server.Unmarshal(mustAppend(t, server.QueryResponse{IDsDV1: ids}), &resp); err != nil || !slices.Equal(resp.AnswerIDs(), ids) {
			t.Fatalf("%v: reply decoded to %v (%v)", ids, resp.AnswerIDs(), err)
		}
	})
}
