package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// roundTripFunc serves a canned response without a network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// streamClient returns a retry-free client whose /sweep answers with
// body, marked gzip-encoded when gz is set.
func streamClient(body []byte, gz bool) *Client {
	return &Client{
		BaseURL:    "http://sweep.invalid",
		MaxRetries: -1,
		HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			h := http.Header{"Content-Type": {"application/x-ndjson"}}
			if gz {
				h.Set("Content-Encoding", "gzip")
			}
			return &http.Response{
				StatusCode: http.StatusOK, Header: h, Request: r,
				Body: io.NopCloser(bytes.NewReader(body)),
			}, nil
		})},
	}
}

// TestClientRejectsOutOfRangeIndex: a result index outside the
// experiments the stream reports is a malformed stream, refused with an
// error rather than a panic or an unbounded allocation.
func TestClientRejectsOutOfRangeIndex(t *testing.T) {
	for _, index := range []string{"-1", "1", "1099511627776"} {
		body := `{"type":"result","index":` + index + `,"status":"ok"}` + "\n" +
			`{"type":"summary","total":1}` + "\n"
		_, err := streamClient([]byte(body), false).Sweep(context.Background(), SweepRequest{})
		if err == nil || !strings.Contains(err.Error(), "index") {
			t.Errorf("index %s: err = %v, want an out-of-range error", index, err)
		}
	}
	body := `{"type":"result","index":1,"status":"ok"}` + "\n" +
		`{"type":"deadline","index":0,"status":"timeout"}` + "\n" +
		`{"type":"summary","total":2}` + "\n"
	resp, err := streamClient([]byte(body), false).Sweep(context.Background(), SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Type != "deadline" || resp.Results[1].Index != 1 {
		t.Errorf("results = %+v, want each record at its own index", resp.Results)
	}
}

// FuzzClientStream feeds cut, garbled and gzip'd bodies through the
// client's stream decoding. It must never panic, and must return either
// an error or a well-formed response: a summary, and each result at its
// own index inside the summary's experiment count.
func FuzzClientStream(f *testing.F) {
	good := `{"type":"result","index":0,"id":"a","status":"ok","rendered":"A\n"}` + "\n" +
		`{"type":"deadline","index":1,"id":"b","status":"timeout"}` + "\n" +
		`{"type":"summary","total":2,"failed":1,"timedOut":true}` + "\n"
	f.Add([]byte(good), false, uint16(0))
	f.Add([]byte(good), true, uint16(0))
	f.Add([]byte(good), true, uint16(40))
	f.Add([]byte(good), false, uint16(70))
	f.Add([]byte(`{"type":"result","index":-1}`+"\n"+`{"type":"summary","total":1}`), false, uint16(0))
	f.Add([]byte(`{"type":"summary","total":-5}`), false, uint16(0))
	f.Add([]byte("\x1f\x8b garbage"), true, uint16(0))
	f.Fuzz(func(t *testing.T, body []byte, gz bool, cut uint16) {
		if gz {
			var buf bytes.Buffer
			w := gzip.NewWriter(&buf)
			w.Write(body)
			w.Close()
			body = buf.Bytes()
		}
		if cut > 0 && int(cut) < len(body) {
			body = body[:cut]
		}
		resp, err := streamClient(body, gz).Sweep(context.Background(), SweepRequest{})
		if err != nil {
			return
		}
		if resp.Summary.Type != "summary" {
			t.Fatalf("accepted a stream without a summary: %+v", resp.Summary)
		}
		if len(resp.Results) > resp.Summary.Total {
			t.Fatalf("%d results for %d experiments", len(resp.Results), resp.Summary.Total)
		}
		for i, r := range resp.Results {
			if r != nil && (r.Index != i || r.Type == "summary") {
				t.Fatalf("results[%d] = %+v", i, r)
			}
		}
	})
}
