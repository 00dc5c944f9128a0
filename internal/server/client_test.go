package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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

// TestClientBackoffStaysPositiveAndCapped: however many retries a
// client is allowed, every backoff delay stays in (0, MaxDelay] — the
// doubling stops at the cap instead of overflowing into a zero or
// negative delay that would spin against a draining daemon.
func TestClientBackoffStaysPositiveAndCapped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	const retries = 70
	const maxDelay = time.Millisecond
	var delays []time.Duration
	c := &Client{
		BaseURL:    srv.URL,
		MaxRetries: retries,
		BaseDelay:  time.Nanosecond,
		MaxDelay:   maxDelay,
		Logf: func(format string, args ...any) {
			delays = append(delays, args[1].(time.Duration))
		},
	}
	if _, err := c.Sweep(context.Background(), SweepRequest{}); err == nil {
		t.Fatal("Sweep against an always-503 server succeeded")
	}
	if len(delays) != retries {
		t.Fatalf("logged %d retries, want %d", len(delays), retries)
	}
	for i, d := range delays {
		if d <= 0 || d > maxDelay {
			t.Errorf("retry %d: delay %v, want in (0, %v]", i+1, d, maxDelay)
		}
	}
}

// TestParseRetryAfterOverflowIsAbsent: a Retry-After too large for a
// time.Duration is treated as absent, not wrapped into a negative delay.
func TestParseRetryAfterOverflowIsAbsent(t *testing.T) {
	for v, want := range map[string]time.Duration{
		"3":                    3 * time.Second,
		"9223372036":           9223372036 * time.Second,
		"9223372037":           0,
		"9223372036854775807":  0,
		"99999999999999999999": 0,
		"-1":                   0,
	} {
		if got := parseRetryAfter(v); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
}
