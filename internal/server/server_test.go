package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
	"spectrebench/internal/store"
)

// synthRegistry builds Lookup/All hooks over synthetic experiments.
func synthRegistry(exps ...harness.Experiment) (func(string) (harness.Experiment, bool), func() []harness.Experiment) {
	byID := map[string]harness.Experiment{}
	for _, e := range exps {
		byID[e.ID] = e
	}
	lookup := func(id string) (harness.Experiment, bool) { e, ok := byID[id]; return e, ok }
	all := func() []harness.Experiment { return exps }
	return lookup, all
}

func okExp(id string) harness.Experiment {
	return harness.Experiment{ID: id, Paper: "test", Title: "synthetic " + id, Run: func() (*harness.Table, error) {
		return &harness.Table{ID: id, Title: "t", Columns: []string{"v"}, Rows: [][]string{{id}}}, nil
	}}
}

// blockingExp runs until release is closed.
func blockingExp(id string, release <-chan struct{}) harness.Experiment {
	return harness.Experiment{ID: id, Paper: "test", Title: "blocks", Run: func() (*harness.Table, error) {
		<-release
		return &harness.Table{ID: id, Columns: []string{"v"}, Rows: [][]string{{id}}}, nil
	}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		eng := engine.New(4)
		t.Cleanup(eng.Close)
		cfg.Engine = eng
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// TestSweepStreamsResultsInRequestOrder: a sweep returns one rendered
// record per experiment plus a summary, and the client reassembles
// them in request order whatever order they completed in.
func TestSweepStreamsResultsInRequestOrder(t *testing.T) {
	lookup, all := synthRegistry(okExp("a"), okExp("b"), okExp("c"))
	_, hs := newTestServer(t, Config{Lookup: lookup, All: all})

	cl := &Client{BaseURL: hs.URL}
	resp, err := cl.Sweep(context.Background(), SweepRequest{Experiments: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, id := range []string{"a", "b", "c"} {
		rec := resp.Results[i]
		if rec == nil || rec.ID != id || rec.Status != string(harness.StatusOK) {
			t.Errorf("results[%d] = %+v, want id=%s status=ok", i, rec, id)
		}
		if rec != nil && !strings.Contains(rec.Rendered, id) {
			t.Errorf("results[%d].Rendered does not contain %q:\n%s", i, id, rec.Rendered)
		}
	}
	if resp.Summary.Failed != 0 || resp.Summary.TimedOut {
		t.Errorf("summary = %+v, want failed=0 timedOut=false", resp.Summary)
	}
	if resp.Summary.Stats == nil {
		t.Error("summary carries no stats snapshot")
	}
}

// TestAdmissionControlRefusesWith429: with MaxInflight=1 and one sweep
// parked, the next sweep and the next search are each refused
// immediately with 429 and a Retry-After hint — admission control sheds
// load, it never queues. Both endpoints answer any method but POST with
// 405, which is not an admission refusal.
func TestAdmissionControlRefusesWith429(t *testing.T) {
	release := make(chan struct{})
	lookup, all := synthRegistry(blockingExp("slow", release), okExp("fast"))
	srv, hs := newTestServer(t, Config{Lookup: lookup, All: all, MaxInflight: 1})

	errCh := make(chan error, 1)
	go func() {
		cl := &Client{BaseURL: hs.URL, MaxRetries: -1}
		_, err := cl.Sweep(context.Background(), SweepRequest{Experiments: []string{"slow"}})
		errCh <- err
	}()
	// Wait until the first sweep holds the admission slot.
	for i := 0; srv.Stats().Server.Inflight == 0; i++ {
		if i > 500 {
			t.Fatal("first sweep never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, ep := range []struct{ path, body string }{
		{"/sweep", `{"experiments":["fast"]}`},
		{"/optimize", `{"combos":1}`},
	} {
		resp, err := http.Post(hs.URL+ep.path, "application/json", strings.NewReader(ep.body))
		if err != nil {
			t.Fatalf("POST %s: %v", ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("POST %s while saturated: status %d, want 429", ep.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s: 429 carries no Retry-After hint", ep.path)
		}

		resp, err = http.Get(hs.URL + ep.path)
		if err != nil {
			t.Fatalf("GET %s: %v", ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", ep.path, resp.StatusCode)
		}
	}

	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("first sweep failed: %v", err)
	}
	if st := srv.Stats().Server; st.Rejected != 2 || st.Accepted != 1 {
		t.Errorf("rejected=%d accepted=%d, want 2/1", st.Rejected, st.Accepted)
	}
}

// TestDrainRefusesNewWorkAndFlipsHealthz: BeginDrain turns /healthz 503
// and refuses sweeps with Retry-After, while WaitIdle completes once
// in-flight work is done.
func TestDrainRefusesNewWorkAndFlipsHealthz(t *testing.T) {
	lookup, all := synthRegistry(okExp("a"))
	srv, hs := newTestServer(t, Config{Lookup: lookup, All: all})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	srv.BeginDrain()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz during drain: %d %q, want 503 draining", resp.StatusCode, h.Status)
	}

	resp, err = http.Post(hs.URL+"/sweep", "application/json", strings.NewReader(`{"experiments":["a"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain refusal carries no Retry-After hint")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !srv.WaitIdle(ctx) {
		t.Error("WaitIdle did not complete on an idle server")
	}
}

// TestRequestDeadlineReturnsPartialResults: a sweep that outlives its
// deadline still streams everything that finished, marks the rest as
// deadline records, and flags the summary — graceful degradation, not
// a hung connection. The admission slot stays held until the abandoned
// work completes.
func TestRequestDeadlineReturnsPartialResults(t *testing.T) {
	release := make(chan struct{})
	lookup, all := synthRegistry(okExp("fast"), blockingExp("stuck", release))
	srv, hs := newTestServer(t, Config{Lookup: lookup, All: all, MaxInflight: 1})

	cl := &Client{BaseURL: hs.URL, MaxRetries: -1}
	resp, err := cl.Sweep(context.Background(),
		SweepRequest{Experiments: []string{"fast", "stuck"}, TimeoutMs: 300})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if !resp.Summary.TimedOut {
		t.Error("summary not flagged timedOut")
	}
	if rec := resp.Results[0]; rec == nil || rec.Status != string(harness.StatusOK) {
		t.Errorf("fast experiment record = %+v, want ok (partial results must be delivered)", rec)
	}
	if rec := resp.Results[1]; rec == nil || rec.Type != "deadline" {
		t.Errorf("stuck experiment record = %+v, want a deadline record", rec)
	}

	// The abandoned batch still owns the admission slot.
	if got := srv.Stats().Server.Inflight; got != 1 {
		t.Errorf("inflight after timed-out response = %d, want 1 (slot held until work finishes)", got)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !srv.WaitIdle(ctx) {
		t.Fatal("batch never finished after release")
	}
}

// TestClientRetriesTransientErrorsWithBackoff: connection-level and
// 429/503 failures are retried with backoff (honoring Retry-After) and
// a mid-stream cut is retried as a whole request; a 400 is not
// retried.
func TestClientRetriesTransientErrorsWithBackoff(t *testing.T) {
	var calls int
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch calls {
		case 1:
			w.Header().Set("Retry-After", "0") // unparseable-as-positive → backoff path
			http.Error(w, "saturated", http.StatusTooManyRequests)
		case 2:
			// Stream cut after one record, before the summary.
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write([]byte(`{"type":"result","index":0,"id":"a","status":"ok"}` + "\n"))
		default:
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write([]byte(`{"type":"result","index":0,"id":"a","status":"ok","rendered":"A\n"}` + "\n"))
			w.Write([]byte(`{"type":"summary","total":1,"failed":0}` + "\n"))
		}
	})
	hs := httptest.NewServer(h)
	defer hs.Close()

	cl := &Client{BaseURL: hs.URL, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Logf: t.Logf}
	resp, err := cl.Sweep(context.Background(), SweepRequest{Experiments: []string{"a"}})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if calls != 3 {
		t.Errorf("server saw %d calls, want 3 (429, cut stream, success)", calls)
	}
	if resp.Results[0] == nil || resp.Results[0].Rendered != "A\n" {
		t.Errorf("final result = %+v", resp.Results[0])
	}

	// 400s are the caller's bug, not weather: no retry.
	calls = 0
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "no experiments requested", http.StatusBadRequest)
	}))
	defer bad.Close()
	cl2 := &Client{BaseURL: bad.URL, BaseDelay: time.Millisecond}
	if _, err := cl2.Sweep(context.Background(), SweepRequest{}); err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if calls != 1 {
		t.Errorf("400 retried (%d calls), must not be", calls)
	}
}

// TestHTTPFetchByteIdenticalToLocalRun is the cross-check the issue
// asks for: the rendered block for a real experiment fetched over HTTP
// — cold store, then warm store on a fresh daemon — is byte-identical
// to the same experiment supervised locally.
func TestHTTPFetchByteIdenticalToLocalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real experiment batch is slow")
	}
	const id = "table3"
	exp, ok := harness.Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}

	localEng := engine.New(2)
	defer localEng.Close()
	local := harness.RenderResult(harness.SuperviseEach([]harness.Experiment{exp},
		harness.RunConfig{Seed: 7, Retries: harness.DefaultRetries, Engine: localEng}, nil)[0], false)

	dir := t.TempDir()
	fetch := func(label string) string {
		st, err := store.Open(dir, store.Options{NoSync: true, Logf: t.Logf})
		if err != nil {
			t.Fatalf("%s: store.Open: %v", label, err)
		}
		defer st.Close()
		eng := engine.New(2)
		defer eng.Close()
		eng.SetSecondLevel(st)
		_, hs := newTestServer(t, Config{Engine: eng, Store: st})
		cl := &Client{BaseURL: hs.URL}
		resp, err := cl.Sweep(context.Background(), SweepRequest{Experiments: []string{id}, Seed: 7})
		if err != nil {
			t.Fatalf("%s: Sweep: %v", label, err)
		}
		if resp.Results[0] == nil {
			t.Fatalf("%s: no record for %s", label, id)
		}
		return resp.Results[0].Rendered
	}

	cold := fetch("cold")
	if cold != local {
		t.Errorf("cold HTTP fetch differs from local run\n--- local ---\n%s\n--- http cold ---\n%s", local, cold)
	}
	warm := fetch("warm")
	if warm != local {
		t.Errorf("warm HTTP fetch differs from local run\n--- local ---\n%s\n--- http warm ---\n%s", local, warm)
	}
}

// TestGzipResponseMatchesIdentity: /sweep and /optimize stream the same
// records whether the client negotiates gzip or identity. The gzip
// response is marked Content-Encoding: gzip and decodes, record by
// record, to the identity response's bytes. Each request gets a fresh
// daemon; records are compared sorted, because sweep results stream in
// completion order, and without the stats snapshot, which reports
// server counters, not results.
func TestGzipResponseMatchesIdentity(t *testing.T) {
	lookup, all := synthRegistry(okExp("a"), okExp("b"), okExp("c"))
	for _, tc := range []struct{ path, body string }{
		{"/sweep", `{"experiments":["a","b","c"]}`},
		{"/optimize", `{"uarchs":["Zen 2"],"combos":48}`},
	} {
		records := map[string][]string{}
		for _, encoding := range []string{"gzip", "identity"} {
			_, hs := newTestServer(t, Config{Lookup: lookup, All: all})
			req, _ := http.NewRequest(http.MethodPost, hs.URL+tc.path, strings.NewReader(tc.body))
			// Set explicitly, Accept-Encoding also stops the transport
			// from decompressing on its own.
			req.Header.Set("Accept-Encoding", encoding)
			resp, err := http.DefaultClient.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %v %v", tc.path, encoding, resp, err)
			}
			defer resp.Body.Close()
			var body io.Reader = resp.Body
			if resp.Header.Get("Content-Encoding") == "gzip" {
				if body, err = gzip.NewReader(resp.Body); err != nil {
					t.Fatalf("%s: gzip body: %v", tc.path, err)
				}
			} else if encoding == "gzip" {
				t.Fatalf("%s: gzip negotiated but the response is not gzip-encoded", tc.path)
			}
			sc := bufio.NewScanner(body)
			sc.Buffer(nil, 1<<24)
			for sc.Scan() {
				var rec map[string]json.RawMessage
				if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
					t.Fatalf("%s %s: bad NDJSON line %q: %v", tc.path, encoding, sc.Text(), err)
				}
				delete(rec, "stats")
				b, _ := json.Marshal(rec)
				records[encoding] = append(records[encoding], string(b))
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("%s %s: %v", tc.path, encoding, err)
			}
			sort.Strings(records[encoding])
		}
		if gz, id := records["gzip"], records["identity"]; len(gz) < 2 || !reflect.DeepEqual(gz, id) {
			t.Errorf("%s: gzip records differ from identity records\n  gzip     %q\n  identity %q", tc.path, gz, id)
		}
	}
}
