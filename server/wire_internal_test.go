package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// fill sets every field reachable from v to a non-zero value, so that a
// field added to a wire struct is in the test below without anyone listing it.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("ALL")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	default:
		panic("wire struct has a field of kind " + v.Kind().String() + ": teach fill, the encoder and the decoder about it")
	}
}

// TestWireCodecCoversEveryField: with every field of the wire structs set,
// the hand-written encoder still matches encoding/json (a new field missing
// from it shows up as a missing key) and the single-pass parser still
// accepts the result itself (a new field missing from it would otherwise
// send every reply or request down the encoding/json fallback, correct but
// slow).
func TestWireCodecCoversEveryField(t *testing.T) {
	var (
		resp QueryResponse
		req  QueryRequest
		n    int
	)
	fill(reflect.ValueOf(&resp).Elem(), &n)
	fill(reflect.ValueOf(&req).Elem(), &n)

	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendQueryResponse(nil, &resp); !bytes.Equal(got, want) {
		t.Fatalf("response encoder\n got  %s\n want %s", got, want)
	}
	var back QueryResponse
	if d := (decoder{b: want}); !d.queryResponse(&back) || !d.end() || !reflect.DeepEqual(back, resp) {
		t.Fatalf("the single-pass parser does not read %s\n got %+v", want, back)
	}

	if want, err = json.Marshal(req); err != nil {
		t.Fatal(err)
	}
	var reqBack QueryRequest
	if d := (decoder{b: want}); !d.queryRequest(&reqBack) || !d.end() || !reflect.DeepEqual(reqBack, req) {
		t.Fatalf("the single-pass parser does not read %s\n got %+v", want, reqBack)
	}
}

// TestReadBodySizing pins readBody's allocation: a declared length is one
// allocation of that size (or none into a big enough buffer), and a hint, not
// a reservation — a header alone cannot make the server allocate more than
// maxPresize.
func TestReadBodySizing(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 500)
	got, err := readBody(nil, bytes.NewReader(body), int64(len(body)))
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(body)+1 {
		t.Errorf("declared length: read %d bytes into cap %d (%v), want cap %d", len(got), cap(got), err, len(body)+1)
	}
	if got, err := readBody(nil, bytes.NewReader(body), 1<<40); err != nil || !bytes.Equal(got, body) || cap(got) > maxPresize+1 {
		t.Errorf("huge declared length: read %d bytes into cap %d, %v", len(got), cap(got), err)
	}
	buf := make([]byte, 3, 2*len(body))
	if got, _ := readBody(buf, bytes.NewReader(body), int64(len(body))); &got[0] != &buf[0] || !bytes.Equal(got, body) {
		t.Errorf("a big enough buffer was not reused")
	}
}

// TestDecodePresizeIsCapped: the parser sizes a slice from a comma count
// taken before anything is validated. A body that is nothing but commas must
// not reserve memory in proportion to its length — what it costs is the
// bounded presize plus encoding/json's own rejection of the text.
func TestDecodePresizeIsCapped(t *testing.T) {
	commas := strings.Repeat(",", 4<<20)
	for _, body := range []string{
		`{"cov":[` + commas + `]}`, `{"center":[` + commas + `]}`, `{"target_cov":[[` + commas + `]]}`,
		`{"ids":[` + commas + `]}`, `{"routing":{"shard_epochs":[` + commas + `]}}`, `{"routing":{"failed_shards":[` + commas + `]}}`,
	} {
		data := []byte(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var (
			req  QueryRequest
			resp QueryResponse
		)
		if Unmarshal(data, &req) == nil || Unmarshal(data, &resp) == nil {
			t.Fatalf("%.20s…: decoded", body)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%.20s…: rejecting %d MiB of commas allocated %d KiB", body, len(data)>>20, got>>10)
		}
	}
	// A well-formed array longer than the cap still decodes whole.
	ids := make([]int64, 3*maxArrayPresize)
	for i := range ids {
		ids[i] = int64(i)
	}
	var back QueryResponse
	if d := (decoder{b: appendQueryResponse(nil, &QueryResponse{IDs: ids})}); !d.queryResponse(&back) || !d.end() || !reflect.DeepEqual(back.IDs, ids) {
		t.Errorf("the single-pass parser does not read %d ids", len(ids))
	}
}

// TestStreamFrameSizing: a stream frame's length line, like a Content-Length,
// is a hint — a bare maximum-length line with no body reserves at most
// maxPresize and ends in io.ErrUnexpectedEOF; a whole frame reads exactly
// its bytes and leaves the next frame's.
func TestStreamFrameSizing(t *testing.T) {
	bare := &stream{br: bufio.NewReader(strings.NewReader(strconv.Itoa(maxRequestBytes) + "\n"))}
	n, err := bare.frameLen()
	if err != nil || n != maxRequestBytes {
		t.Fatalf("frameLen = %d, %v; want %d", n, err, maxRequestBytes)
	}
	fp := new([]byte)
	if err := bare.frameBody(fp, n); err != io.ErrUnexpectedEOF || cap(*fp) > maxPresize+1 {
		t.Errorf("bare maximum-length line: %v with cap %d, want io.ErrUnexpectedEOF and cap ≤ %d", err, cap(*fp), maxPresize+1)
	}

	body := bytes.Repeat([]byte("x"), 3*maxPresize/2)
	two := &stream{br: bufio.NewReader(io.MultiReader(
		strings.NewReader(strconv.Itoa(len(body))+"\n"), bytes.NewReader(body), strings.NewReader("2\n{}")))}
	for i, want := range [][]byte{body, []byte("{}")} {
		n, err := two.frameLen()
		if err == nil {
			err = two.frameBody(fp, n)
		}
		if err != nil || !bytes.Equal(*fp, want) {
			t.Fatalf("frame %d: %d bytes, %v; want %d", i, len(*fp), err, len(want))
		}
	}
	if _, err := two.frameLen(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}
