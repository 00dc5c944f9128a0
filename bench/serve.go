package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spectrebench/internal/attacks"
	"spectrebench/internal/engine"
	"spectrebench/internal/grid"
	"spectrebench/internal/harness"
	"spectrebench/internal/kernel"
	"spectrebench/internal/model"
	"spectrebench/internal/optimize"
	"spectrebench/internal/server"
	"spectrebench/internal/store"
)

// Headers the benchmark's clients send on traced passes, so the
// server-side span can name the client span that caused it.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Request"
)

// serveRounds is how many rounds a pass splits its client traffic into.
const serveRounds = 12

// serve runs the daemon in process, on a real loopback listener with a
// store, and drives it with two closed-loop clients: one sends /sweep
// requests, the other /optimize requests. Each client waits for its
// reply before sending the next request, as every CLI `client` does.
type serve struct {
	st   *store.Store
	eng  *engine.Engine
	srv  *server.Server
	hs   *http.Server
	done chan error // the listener's Serve result
	base string
	tr   atomic.Pointer[tracer] // set during traced passes

	local map[string]string // experiment ID -> locally rendered result
	reqA  []server.SweepRequest
	reqB  [][]byte // /optimize request bodies
	refB  [][]byte // each /optimize request's uarch records from setup
}

func (s *serve) setup(e *env) error {
	var err error
	if s.st, err = store.Open(filepath.Join(e.work, "serve-store"), store.Options{}); err != nil {
		return err
	}
	s.eng = engine.New(e.jobs)
	s.eng.SetSecondLevel(s.st)

	// The local reference every /sweep record must match byte for byte.
	s.local = map[string]string{}
	var ids []string
	exps := e.size.experiments()
	for _, r := range harness.SuperviseEach(exps, harness.RunConfig{Engine: s.eng, Retries: -1}, nil) {
		if r.Status != harness.StatusOK {
			return fmt.Errorf("serve: local reference %s: status %s: %v", r.ID, r.Status, r.Err)
		}
		s.local[r.ID] = harness.RenderResult(r, false)
		ids = append(ids, r.ID)
	}
	s.makeRequests(e, ids)

	s.srv = server.New(server.Config{Engine: s.eng, Store: s.st, All: e.size.experiments})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.middleware(s.srv.Handler())}
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()

	// Warm-up: replay the request list once, keeping each /optimize
	// answer as the reference for the timed requests.
	a, b := s.clients()
	defer a.HTTPClient.CloseIdleConnections()
	defer b.CloseIdleConnections()
	for k, req := range s.reqA {
		resp, err := a.Sweep(context.Background(), req)
		if err := s.checkSweep(req, resp, err); err != nil {
			return fmt.Errorf("serve: warm-up /sweep %d: %w", k, err)
		}
	}
	for k, body := range s.reqB {
		recs, err := s.optimize(b, body)
		if err != nil {
			return fmt.Errorf("serve: warm-up /optimize %d: %w", k, err)
		}
		s.refB = append(s.refB, recs)
	}
	return nil
}

// makeRequests generates the request list. /sweep requests name one to
// four random experiments, or "all" one time in five. /optimize
// requests draw a requirement (the default threat model or a subset of
// it, so every uarch has a secure optimum), four of the eight uarchs and
// one or two LEBench cost workloads; a fixed uarch count keeps every
// request's host-side lattice fold the same size. The requests are drawn
// from a fixed generator, so every seed serves the same mix, and the
// seed orders them: a median over a different mix would move with the
// seed, not with the code.
func (s *serve) makeRequests(e *env, ids []string) {
	r := rng(1)
	for k := 0; k < e.size.reqsA; k++ {
		req := server.SweepRequest{Experiments: []string{"all"}}
		if r.Intn(5) != 0 {
			req.Experiments = nil
			for _, i := range r.Perm(len(ids))[:min(1+r.Intn(4), len(ids))] {
				req.Experiments = append(req.Experiments, ids[i])
			}
		}
		s.reqA = append(s.reqA, req)
	}
	defaults := attacks.IDs(attacks.DefaultModel())
	uarchs := model.Names()
	var lebench []string
	for _, w := range grid.WorkloadNames() {
		if strings.HasPrefix(w, "grid/lebench/") {
			lebench = append(lebench, w)
		}
	}
	for k := 0; k < e.size.reqsB; k++ {
		var req server.OptimizeRequest
		if r.Intn(2) == 0 {
			req.Require = "default"
		} else {
			var pick []string
			for _, i := range r.Perm(len(defaults))[:2+r.Intn(5)] {
				pick = append(pick, defaults[i])
			}
			req.Require = strings.Join(pick, ",")
		}
		for _, i := range r.Perm(len(uarchs))[:4] {
			req.Uarchs = append(req.Uarchs, uarchs[i])
		}
		for _, i := range r.Perm(len(lebench))[:1+r.Intn(2)] {
			req.Workloads = append(req.Workloads, lebench[i])
		}
		body, _ := json.Marshal(req)
		s.reqB = append(s.reqB, body)
	}
	if e.seed != 0 {
		o := rng(e.seed)
		o.Shuffle(len(s.reqA), func(i, j int) { s.reqA[i], s.reqA[j] = s.reqA[j], s.reqA[i] })
		o.Shuffle(len(s.reqB), func(i, j int) { s.reqB[i], s.reqB[j] = s.reqB[j], s.reqB[i] })
	}
}

// clientTransport counts response bytes and, on traced passes, tells
// the server which client span a request belongs to. One client
// goroutine owns it, so its fields need no locking.
type clientTransport struct {
	base      http.RoundTripper
	span, id  int
	traced    bool
	respBytes int64
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.traced {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(c.span))
		req.Header.Set(reqHeader, strconv.Itoa(c.id))
	}
	c.respBytes = 0
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// clients returns the /sweep client (gzip on, no retries: a refused
// request counts as failed) and the /optimize HTTP client, each with a
// single connection.
func (s *serve) clients() (*server.Client, *http.Client) {
	conn := func() *clientTransport {
		return &clientTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	a := &server.Client{BaseURL: s.base, HTTPClient: &http.Client{Transport: conn()}, MaxRetries: -1, Gzip: true}
	return a, &http.Client{Transport: conn()}
}

// middleware records a server-side span per request on traced passes.
func (s *serve) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id, _ := strconv.Atoi(r.Header.Get(reqHeader))
		i := tr.begin("server"+r.URL.Path, parent, int64(id))
		h.ServeHTTP(w, r)
		tr.end(i)
	})
}

// checkSweep verifies a /sweep response: every requested experiment
// came back ok and byte-identical to the local reference run.
func (s *serve) checkSweep(req server.SweepRequest, resp *server.SweepResponse, err error) error {
	if err != nil {
		return err
	}
	want := len(req.Experiments)
	if want == 1 && req.Experiments[0] == "all" {
		want = len(s.local)
	}
	if len(resp.Results) != want {
		return fmt.Errorf("%d results, want %d", len(resp.Results), want)
	}
	for i, rec := range resp.Results {
		switch {
		case rec == nil:
			return fmt.Errorf("result %d missing", i)
		case rec.Type != "result" || rec.Status != string(harness.StatusOK):
			return fmt.Errorf("%s: %s %s: %s", rec.ID, rec.Type, rec.Status, rec.Err)
		case rec.Rendered != s.local[rec.ID]:
			return fmt.Errorf("%s: rendered result differs from the local run", rec.ID)
		}
	}
	if resp.Summary.Failed > 0 || resp.Summary.TimedOut {
		return fmt.Errorf("summary: %d failed, timed out %v", resp.Summary.Failed, resp.Summary.TimedOut)
	}
	return nil
}

// optimize posts one /optimize request and returns its uarch records.
func (s *serve) optimize(c *http.Client, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/optimize", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var r io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			return nil, err
		}
		r = gz
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var uarchs []byte
	summary := false
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Type string `json:"type"`
			Err  string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("malformed record: %w", err)
		}
		switch {
		case rec.Err != "":
			return nil, fmt.Errorf("%s record: %s", rec.Type, rec.Err)
		case rec.Type == "uarch":
			uarchs = append(append(uarchs, line...), '\n')
		case rec.Type == "summary":
			summary = true
		}
	}
	if !summary {
		return nil, errors.New("no summary record")
	}
	return uarchs, nil
}

func (s *serve) measure(e *env, d time.Duration, tr *tracer) series {
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	ss := series{}
	var mu sync.Mutex // guards ss and e's counters
	record := func(name string, v float64) {
		mu.Lock()
		ss.add(name, v)
		mu.Unlock()
	}
	result := func(what string, k int, err error) {
		mu.Lock()
		e.attempted++
		e.check(err == nil, "serve: %s request %d: %v", what, k, err)
		mu.Unlock()
	}

	a, b := s.clients()
	ta := a.HTTPClient.Transport.(*clientTransport)
	tb := b.Transport.(*clientTransport)
	ta.traced, tb.traced = tr != nil, tr != nil
	// The clients run in rounds, so the reference loop can run between
	// rounds with the daemon idle. Each client sends at least one request
	// per round; ka and kb count the requests sent so far.
	round := d / serveRounds
	ka, kb := 0, 0
	var elapsed time.Duration
	loop(e, d, ss, func(int) {
		t0 := time.Now()
		deadline := t0.Add(round)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for more := true; more; more = time.Now().Before(deadline) {
				k := ka
				ka++
				req := s.reqA[k%len(s.reqA)]
				var first time.Time
				a.OnRecord = func(server.Record) {
					if first.IsZero() {
						first = time.Now()
					}
				}
				ta.id = 2 * k
				ta.span = tr.begin("client/sweep", -1, int64(ta.id))
				start := time.Now()
				resp, err := a.Sweep(context.Background(), req)
				lat := time.Since(start)
				tr.end(ta.span)
				record("op", ms(lat))
				if !first.IsZero() {
					record("ttfb_ms", ms(first.Sub(start)))
				}
				record("resp_kb", float64(ta.respBytes)/1024)
				result("/sweep", k, s.checkSweep(req, resp, err))
			}
		}()
		go func() {
			defer wg.Done()
			for more := true; more; more = time.Now().Before(deadline) {
				k := kb
				kb++
				i := k % len(s.reqB)
				tb.id = 2*k + 1
				tb.span = tr.begin("client/optimize", -1, int64(tb.id))
				start := time.Now()
				recs, err := s.optimize(b, s.reqB[i])
				lat := time.Since(start)
				tr.end(tb.span)
				record("op2", ms(lat))
				if err == nil && !bytes.Equal(recs, s.refB[i]) {
					err = errors.New("uarch records differ from the warm-up answer")
				}
				result("/optimize", k, err)
			}
		}()
		wg.Wait()
		elapsed += time.Since(t0)
	})
	ss.add("elapsed_s", elapsed.Seconds())
	a.HTTPClient.CloseIdleConnections()
	b.CloseIdleConnections()
	return ss
}

func (s *serve) summarize(e *env, ss series) {
	for _, kind := range []struct{ prefix, key string }{{"sweep", "op"}, {"optimize", "op2"}} {
		xs := ss[kind.key]
		e.metrics[kind.prefix+"_p50_ms"] = median(xs)
		e.metrics[kind.prefix+"_samples"] = float64(len(xs))
		if pct, v, ok := tail(xs); ok {
			e.metrics[kind.prefix+"_tail_pct"] = pct
			e.metrics[kind.prefix+"_tail_ms"] = v
		}
	}
	if el := median(ss["elapsed_s"]); el > 0 {
		e.metrics["requests_per_s"] = float64(len(ss["op"])+len(ss["op2"])) / el
	}
	e.metrics["server.ttfb_ms_p50"] = median(ss["ttfb_ms"])
	e.metrics["server.response_kb_p50"] = median(ss["resp_kb"])
	st := s.srv.Stats()
	e.metrics["server.rejected"] = float64(st.Server.Rejected)
	e.metrics["server.timed_out"] = float64(st.Server.TimedOut)
}

// layers times the optimizer directly, outside the daemon: one cold
// search of the default request on a fresh engine, then warm repeats;
// and the host-side lattice loop every search runs, split into lowering
// (grid.ComboAt → BootParams.Apply → CanonicalKey) and classification
// (attacks.Secure per distinct class).
func (s *serve) layers(e *env, ss series, spans []span) {
	eng := engine.New(e.jobs)
	opts := optimize.Options{Prune: true}
	res, err := optimize.Search(eng, opts)
	e.attempted++
	if e.check(err == nil, "serve: optimize.Search: %v", err) {
		e.metrics["optimize.evaluated"] = float64(res.Totals.Evaluated)
		e.metrics["optimize.cells_simulated"] = float64(res.Engine.Simulated)
	}
	var warm []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		optimize.Search(eng, opts)
		warm = append(warm, ms(time.Since(t0)))
	}
	eng.Close()
	e.metrics["optimize.search_ms"] = median(warm)

	require := attacks.DefaultModel()
	t0 := time.Now()
	classes := make([]map[string]kernel.Mitigations, len(model.All()))
	for u, m := range model.All() {
		def := kernel.Defaults(m)
		classes[u] = map[string]kernel.Mitigations{}
		for ci := 0; ci < grid.CombosPerUarch; ci++ {
			bp, _ := grid.ComboAt(ci)
			mit := bp.Apply(m, def)
			classes[u][mit.CanonicalKey()] = mit
		}
	}
	t1 := time.Now()
	for u, m := range model.All() {
		for _, mit := range classes[u] {
			attacks.Secure(m, mit, require)
		}
	}
	e.metrics["kernel.lower_ms"] = ms(t1.Sub(t0))
	e.metrics["attacks.classify_ms"] = ms(time.Since(t1))
}

func (s *serve) close(e *env) {
	if s.hs != nil {
		s.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.srv.WaitIdle(ctx)
		s.hs.Shutdown(ctx)
		cancel()
		<-s.done
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if s.st != nil {
		if err := s.st.Close(); err != nil {
			e.check(false, "serve: store close: %v", err)
		}
	}
}
