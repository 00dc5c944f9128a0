package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
)

// wideExp renders a table of ~40 KB, more than the response's 32 KiB
// write buffer holds, so its record reaches the gzip writer in pieces.
func wideExp(id string) harness.Experiment {
	return harness.Experiment{ID: id, Paper: "test", Title: "wide " + id, Run: func() (*harness.Table, error) {
		tb := &harness.Table{ID: id, Title: "wide §5.1", Columns: []string{"row", "value", "note"}}
		for i := 0; i < 800; i++ {
			tb.Rows = append(tb.Rows, []string{fmt.Sprint(i), fmt.Sprintf("%d.%02d%%", i*7%100, i%100), "µs —"})
		}
		return tb, nil
	}}
}

// TestCoalescedFlushStillStreams: a result record is flushed as soon as
// no further completion is queued behind it, so the client sees a's
// record while b is still running, with gzip and without.
func TestCoalescedFlushStillStreams(t *testing.T) {
	for _, gz := range []bool{true, false} {
		release := make(chan struct{})
		unblock := sync.OnceFunc(func() { close(release) })
		lookup, all := synthRegistry(okExp("a"), blockingExp("b", release))
		_, hs := newTestServer(t, Config{Lookup: lookup, All: all})
		t.Cleanup(unblock)

		arrived := make(chan struct{})
		seen := sync.OnceFunc(func() { close(arrived) })
		cl := &Client{BaseURL: hs.URL, MaxRetries: -1, Gzip: gz, OnRecord: func(rec Record) {
			if rec.Type == "result" && rec.ID == "a" {
				seen()
			}
		}}
		done := make(chan error, 1)
		go func() {
			_, err := cl.Sweep(context.Background(), SweepRequest{Experiments: []string{"a", "b"}})
			done <- err
		}()
		select {
		case <-arrived:
		case err := <-done:
			t.Fatalf("gzip=%v: sweep ended (%v) before b was released", gz, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("gzip=%v: a's record did not arrive while b was blocked", gz)
		}
		unblock()
		if err := <-done; err != nil {
			t.Fatalf("gzip=%v: Sweep: %v", gz, err)
		}
	}
}

// streamReq is one request of TestPooledWritersDoNotLeakConcurrent.
type streamReq struct {
	path, body string
	gzip       bool
	// client sends a /sweep through Client, which decodes with its
	// pooled gzip reader and line buffer; otherwise the test decodes the
	// raw response itself.
	client bool
}

// fetchRecords sends req and returns its records, sorted (sweep results
// stream in completion order) and without what does not belong to the
// response alone: the stats snapshot reports server counters, and an
// /optimize summary's engine delta counts concurrent searches' cells.
func fetchRecords(base string, req streamReq) ([]string, error) {
	if req.client {
		var sr SweepRequest
		if err := json.Unmarshal([]byte(req.body), &sr); err != nil {
			return nil, err
		}
		cl := &Client{BaseURL: base, MaxRetries: -1, Gzip: req.gzip}
		resp, err := cl.Sweep(context.Background(), sr)
		if err != nil {
			return nil, err
		}
		resp.Summary.Stats = nil
		var recs []string
		for _, r := range append(resp.Results, &resp.Summary) {
			b, _ := json.Marshal(r)
			recs = append(recs, string(b))
		}
		sort.Strings(recs)
		return recs, nil
	}
	resp, body, err := post(base, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var recs []string
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		delete(rec, "stats")
		if res, ok := rec["result"]; ok {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(res, &m); err != nil {
				return nil, err
			}
			delete(m, "engine")
			rec["result"], _ = json.Marshal(m)
		}
		b, _ := json.Marshal(rec)
		recs = append(recs, string(b))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(recs)
	return recs, nil
}

// post sends req and returns the response with its decoded body,
// checking that the encoding is the one negotiated.
func post(base string, req streamReq) (*http.Response, io.Reader, error) {
	hreq, _ := http.NewRequest(http.MethodPost, base+req.path, strings.NewReader(req.body))
	// Set explicitly, Accept-Encoding also stops the transport from
	// decompressing on its own.
	hreq.Header.Set("Accept-Encoding", map[bool]string{true: "gzip", false: "identity"}[req.gzip])
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("status %s", resp.Status)
	}
	if gz := resp.Header.Get("Content-Encoding") == "gzip"; gz != req.gzip {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("gzip negotiated %v, response gzip-encoded %v", req.gzip, gz)
	}
	if !req.gzip {
		return resp, resp.Body, nil
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		resp.Body.Close()
		return nil, nil, err
	}
	return resp, zr, nil
}

// TestPooledWritersDoNotLeakConcurrent: concurrent responses that share
// the pooled writers each decode to their own single-request reference.
// The mix covers gzip and identity, different experiment sets with and
// without CSV, a record larger than the write buffer, /optimize, a sweep
// cut short by its deadline and a client that hangs up after its first
// record; it runs twice, so writers those last two returned to the
// pools are reused.
func TestPooledWritersDoNotLeakConcurrent(t *testing.T) {
	release := make(chan struct{})
	lookup, all := synthRegistry(okExp("a"), okExp("b"), okExp("c"), wideExp("w"),
		blockingExp("stuck1", release), blockingExp("stuck2", release))
	// Each of the three deadline sweeps (the reference and two rounds)
	// leaves its two blocked experiments on engine workers until the
	// test ends, so eight workers leave two for the rest.
	eng := engine.New(8)
	t.Cleanup(eng.Close)
	_, hs := newTestServer(t, Config{Engine: eng, Lookup: lookup, All: all, MaxInflight: 64})
	t.Cleanup(func() { close(release) })

	var reqs []streamReq
	for _, gz := range []bool{true, false} {
		reqs = append(reqs,
			streamReq{"/sweep", `{"experiments":["a"]}`, gz, false},
			streamReq{"/sweep", `{"experiments":["a","b","c"]}`, gz, true},
			streamReq{"/sweep", `{"experiments":["c","w"],"csv":true}`, gz, false},
			streamReq{"/sweep", `{"experiments":["w","b"]}`, gz, true},
			streamReq{"/sweep", `{"experiments":["b","w","a"],"csv":true}`, gz, true},
			streamReq{"/optimize", `{"uarchs":["Zen 2"],"combos":48}`, gz, false},
			streamReq{"/optimize", `{"uarchs":["Skylake Client"],"combos":24,"require":"all"}`, gz, false},
		)
	}
	reqs = append(reqs, streamReq{"/sweep", `{"experiments":["stuck1","stuck2"],"timeoutMs":50}`, true, false})

	want := make([][]string, len(reqs))
	for i, req := range reqs {
		recs, err := fetchRecords(hs.URL, req)
		if err != nil {
			t.Fatalf("reference %s %s: %v", req.path, req.body, err)
		}
		want[i] = recs
	}

	hangUp := streamReq{"/sweep", `{"experiments":["w","a","b","c"]}`, true, false}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, len(reqs)+1)
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := fetchRecords(hs.URL, req)
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s %s gzip=%v: %v", req.path, req.body, req.gzip, err)
				case strings.Join(got, "\n") != strings.Join(want[i], "\n"):
					errs <- fmt.Errorf("%s %s gzip=%v: records differ from the single-request reference\n got %q\nwant %q",
						req.path, req.body, req.gzip, got, want[i])
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body, err := post(hs.URL, hangUp)
			if err != nil {
				errs <- fmt.Errorf("hang-up sweep: %v", err)
				return
			}
			line, err := bufio.NewReader(body).ReadBytes('\n')
			resp.Body.Close()
			var rec Record
			if err != nil || json.Unmarshal(line, &rec) != nil || rec.Type != "result" {
				errs <- fmt.Errorf("hang-up sweep: first record %q: %v", line, err)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("round %d: %v", round, err)
		}
	}
}

// TestWarmGzipSweepAllocatesNoCompressor bounds what a warm gzip /sweep
// allocates, server and client together. A fresh gzip writer alone
// allocates ~846 KB (its flate compressor), so the bound holds only
// while both ends reuse their codec state.
func TestWarmGzipSweepAllocatesNoCompressor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	lookup, all := synthRegistry(okExp("a"), okExp("b"), okExp("c"), okExp("d"), okExp("e"))
	_, hs := newTestServer(t, Config{Lookup: lookup, All: all})
	cl := &Client{BaseURL: hs.URL, MaxRetries: -1, Gzip: true}
	req := SweepRequest{Experiments: []string{"a", "b", "c", "d", "e"}}
	sweep := func() {
		if _, err := cl.Sweep(context.Background(), req); err != nil {
			t.Fatalf("Sweep: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		sweep()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per warm gzip /sweep", perReq)
	if perReq >= 256<<10 {
		t.Errorf("a warm gzip /sweep allocates %d B, want < %d", perReq, 256<<10)
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
