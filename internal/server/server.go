// Package server is the sweep-as-a-service HTTP daemon behind
// `spectrebench serve`: it accepts sweep requests (batches of
// experiments under one deterministic configuration), resolves their
// simulation cells store-first through the engine's second-level cache,
// schedules the misses on the work-stealing pool, and streams results
// back as NDJSON while the batch is still running.
//
// The service is built for heavy repeat traffic degrading gracefully,
// not for peak throughput:
//
//   - Admission control. A semaphore bounds the number of sweeps in
//     flight; a request beyond the bound is refused immediately with
//     429 Too Many Requests and a Retry-After hint instead of queueing
//     without bound. Refusal is cheap (no body is read), so overload
//     sheds load rather than amplifying it.
//   - Deadlines. Every sweep runs under a wall-clock context deadline
//     (the server's cap, tightened per-request by the client), and
//     every experiment under it is additionally bounded in simulated
//     cycles by the supervisor's watchdog. A sweep that outlives its
//     deadline returns what completed plus per-experiment deadline
//     records — partial answers over hung connections. Its admission
//     slot stays held until the abandoned work actually finishes
//     (simulated-cycle-bounded), so a flood of timeouts cannot
//     oversubscribe the pool.
//   - Isolation. Sweeps run through harness.SuperviseEach, which
//     carries every determinism parameter (seed, fault activation,
//     cycle budget, engine) in per-attempt scopes — two concurrent
//     sweeps with different seeds cannot perturb each other, and a
//     result served over HTTP is byte-identical to the same
//     configuration run locally.
//   - Drain. BeginDrain flips /healthz to 503 and refuses new sweeps;
//     WaitIdle blocks until in-flight work completes. The daemon's
//     SIGTERM path is drain → http shutdown → engine close → store
//     close, so a rolling restart loses no committed cell.
package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/harness"
	"spectrebench/internal/store"
)

// Config configures a Server.
type Config struct {
	// Engine schedules the sweeps' cells. Required.
	Engine *engine.Engine
	// Store is the persistent cell store backing the engine's second
	// level, reported in /statsz. May be nil (memo-only serving).
	Store *store.Store
	// MaxInflight bounds concurrently admitted sweeps (default 4).
	MaxInflight int
	// RequestTimeout caps every sweep's wall-clock run time (default
	// 5m). A request may ask for less, never for more.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 responses (default
	// 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Lookup resolves experiment IDs; nil means the harness registry
	// (tests inject synthetic experiments here).
	Lookup func(id string) (harness.Experiment, bool)
	// All lists every experiment (the "all" sweep); nil means the
	// harness registry.
	All func() []harness.Experiment
	// Logf, when non-nil, receives one line per admitted/refused sweep
	// and per lifecycle event.
	Logf func(format string, args ...any)
}

// SweepRequest is the body of POST /sweep.
type SweepRequest struct {
	// Experiments lists experiment IDs; the single element "all" expands
	// to the full registry.
	Experiments []string `json:"experiments"`
	// Seed, Faults, CycleBudget, Retries mirror the CLI flags. Nil
	// pointers take the server defaults (CLI defaults), matching a local
	// `spectrebench run`: CycleBudget nil → supervisor default, 0 →
	// watchdog disabled; Retries nil → supervisor default.
	Seed        uint64  `json:"seed"`
	Faults      bool    `json:"faults"`
	CycleBudget *uint64 `json:"cycleBudget,omitempty"`
	Retries     *int    `json:"retries,omitempty"`
	// CSV selects CSV table rendering instead of aligned text.
	CSV bool `json:"csv,omitempty"`
	// TimeoutMs tightens the server's request deadline (0 = server
	// default; values above the server cap are clamped to it).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// Record is one NDJSON line of a sweep response.
type Record struct {
	// Type is "result" (one experiment finished), "deadline" (the sweep
	// deadline expired before this experiment finished), or "summary"
	// (final line).
	Type string `json:"type"`
	// Index is the experiment's position in the request; ID its name.
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
	// Result fields.
	Status   string `json:"status,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	Cycles   uint64 `json:"cycles,omitempty"`
	Rendered string `json:"rendered,omitempty"`
	Err      string `json:"error,omitempty"`
	// Summary fields.
	Total    int            `json:"total,omitempty"`
	Failed   int            `json:"failed,omitempty"`
	TimedOut bool           `json:"timedOut,omitempty"`
	Stats    *StatsSnapshot `json:"stats,omitempty"`
}

// StatsSnapshot is the /statsz payload (also attached to sweep
// summaries).
type StatsSnapshot struct {
	Store    *StoreStats    `json:"store,omitempty"`
	Engine   EngineStats    `json:"engine"`
	Server   ServerStats    `json:"server"`
	Optimize *OptimizeStats `json:"optimize,omitempty"`
}

// StoreStats mirrors store.Stats for JSON.
type StoreStats struct {
	Entries          int    `json:"entries"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Puts             uint64 `json:"puts"`
	PutErrors        uint64 `json:"putErrors"`
	Quarantined      uint64 `json:"quarantined"`
	TmpSwept         int    `json:"tmpSwept"`
	Segments         int    `json:"segments"`
	ManifestSegments int    `json:"manifestSegments"`
	TornTail         int    `json:"tornTail"`
	DeadRecords      int    `json:"deadRecords"`
	Compactions      uint64 `json:"compactions"`
	GetBatches       uint64 `json:"getBatches"`
	SidecarLinks     int    `json:"sidecarLinks"`
	SidecarHits      uint64 `json:"sidecarHits"`
	SidecarMisses    uint64 `json:"sidecarMisses"`
}

// EngineStats reports the cell cache, level by level: display-keyed
// memo hits/misses, first-sights folded onto an equivalence class,
// class executions replayed from the second-level store, and the
// residue actually simulated. classHits/misses gives the dedup ratio.
type EngineStats struct {
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	ClassHits       uint64 `json:"classHits"`
	SecondLevelHits uint64 `json:"secondLevelHits"`
	Classes         uint64 `json:"classes"`
	Simulated       uint64 `json:"simulated"`
	InlineFanouts   uint64 `json:"inlineFanouts"`
}

// ServerStats reports sweep admission outcomes.
type ServerStats struct {
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	TimedOut  uint64 `json:"timedOut"`
	Inflight  int    `json:"inflight"`
	Draining  bool   `json:"draining"`
}

// Server is the sweep-as-a-service daemon core (everything but the
// listener, so tests drive it through httptest).
type Server struct {
	cfg Config
	sem chan struct{}

	draining atomic.Bool
	work     sync.WaitGroup // one unit per admitted sweep's batch

	accepted, rejected, completed, timedOut atomic.Uint64
	opt                                     optCounters
}

// New returns a Server with cfg's zero fields (other than the required
// Engine) defaulted.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Minute
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Lookup == nil {
		cfg.Lookup = harness.Lookup
	}
	if cfg.All == nil {
		cfg.All = harness.All
	}
	return &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// BeginDrain refuses new sweeps from now on (503) and flips /healthz to
// draining. In-flight sweeps keep running; pair with WaitIdle.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logf("server: draining (no new sweeps admitted)")
	}
}

// WaitIdle blocks until every admitted sweep's work has completed
// (including work abandoned by timed-out requests) or ctx expires; it
// reports whether the server went idle.
func (s *Server) WaitIdle(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		s.work.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// Stats returns the current statistics snapshot.
func (s *Server) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Server: ServerStats{
			Accepted:  s.accepted.Load(),
			Rejected:  s.rejected.Load(),
			Completed: s.completed.Load(),
			TimedOut:  s.timedOut.Load(),
			Inflight:  len(s.sem),
			Draining:  s.draining.Load(),
		},
	}
	if s.opt.searches.Load() > 0 {
		snap.Optimize = s.opt.snapshot()
	}
	d := s.cfg.Engine.StatsDetail()
	snap.Engine = EngineStats{
		Hits:            d.Hits,
		Misses:          d.Misses,
		ClassHits:       d.ClassHits,
		SecondLevelHits: d.SecondLevelHits,
		Classes:         d.Classes,
		Simulated:       d.Simulated,
		InlineFanouts:   d.InlineFanouts,
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		snap.Store = &StoreStats{
			Entries:          st.Entries,
			Hits:             st.Hits,
			Misses:           st.Misses,
			Puts:             st.Puts,
			PutErrors:        st.PutErrors,
			Quarantined:      st.Quarantined,
			TmpSwept:         st.TmpSwept,
			Segments:         st.Segments,
			ManifestSegments: st.ManifestSegments,
			TornTail:         st.TornTail,
			DeadRecords:      st.DeadRecords,
			Compactions:      st.Compactions,
			GetBatches:       st.GetBatches,
			SidecarLinks:     st.SidecarLinks,
			SidecarHits:      st.SidecarHits,
			SidecarMisses:    st.SidecarMisses,
		}
	}
	return snap
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "draining", "inflight": len(s.sem)})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"status": "ok", "inflight": len(s.sem)})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// retryAfterSeconds renders the Retry-After hint (whole seconds,
// minimum 1).
func (s *Server) retryAfterSeconds() string {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Admission control: refuse instead of queueing. The slot is
	// released by the batch goroutine when the sweep's work is actually
	// done, which may outlive this handler on a timed-out request.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "sweep capacity saturated, retry later", http.StatusTooManyRequests)
		return
	}
	admitted := false
	defer func() {
		if !admitted {
			<-s.sem
		}
	}()

	var req SweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	exps, err := s.resolve(req.Experiments)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := s.runConfig(req)

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	s.accepted.Add(1)
	admitted = true
	s.logf("server: sweep admitted: %d experiments, seed=%d faults=%v timeout=%s",
		len(exps), cfg.Seed, cfg.Faults, timeout)

	// Run the batch in its own goroutine so the handler can multiplex
	// completions against the deadline. The goroutine owns the admission
	// slot: it releases it only when the whole batch has finished, even
	// if the handler has long since returned a deadline response.
	type completion struct {
		i   int
		res harness.Result
	}
	compCh := make(chan completion, len(exps))
	resultsCh := make(chan []harness.Result, 1)
	s.work.Add(1)
	go func() {
		defer s.work.Done()
		defer func() { <-s.sem }()
		resultsCh <- harness.SuperviseEach(exps, cfg, func(i int, res harness.Result) {
			compCh <- completion{i, res}
		})
	}()

	// Buffered response stack with explicit flush points: records
	// accumulate in a bufio layer (one write syscall per flush instead
	// of per JSON fragment), optionally gzip-compressed when the client
	// negotiated it. Flushes happen per record and at the end — the
	// stream stays incremental, the writes stop dominating warm sweeps.
	w.Header().Set("Content-Type", "application/x-ndjson")
	var sink = struct {
		bw *bufio.Writer
		gz *gzip.Writer
	}{}
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		sink.gz = gzip.NewWriter(w)
		sink.bw = bufio.NewWriterSize(sink.gz, 32<<10)
	} else {
		sink.bw = bufio.NewWriterSize(w, 32<<10)
	}
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(sink.bw)
	flush := func() {
		sink.bw.Flush()
		if sink.gz != nil {
			sink.gz.Flush()
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	defer func() {
		sink.bw.Flush()
		if sink.gz != nil {
			sink.gz.Close()
		}
	}()

	seen := make([]bool, len(exps))
	results := make([]harness.Result, len(exps))
	finished := 0
	timedOut := false
	for finished < len(exps) {
		select {
		case c := <-compCh:
			if seen[c.i] {
				continue
			}
			seen[c.i] = true
			results[c.i] = c.res
			finished++
			rec := Record{
				Type:     "result",
				Index:    c.i,
				ID:       c.res.ID,
				Status:   string(c.res.Status),
				Retries:  c.res.Retries,
				Cycles:   c.res.Cycles,
				Rendered: harness.RenderResult(c.res, req.CSV),
			}
			if c.res.Err != nil {
				rec.Err = c.res.Err.Error()
			}
			enc.Encode(rec)
			flush()
		case <-ctx.Done():
			timedOut = true
		}
		if timedOut {
			break
		}
	}

	if timedOut {
		s.timedOut.Add(1)
		for i, e := range exps {
			if seen[i] {
				continue
			}
			// The experiment is still running (bounded by the simulated-
			// cycle watchdog); report the deadline, keep the slot held
			// until it finishes.
			results[i] = harness.Result{ID: e.ID, Paper: e.Paper, Title: e.Title,
				Status: harness.StatusTimeout, Err: ErrDeadline}
			enc.Encode(Record{
				Type: "deadline", Index: i, ID: e.ID,
				Status: string(harness.StatusTimeout), Err: ErrDeadline.Error(),
			})
		}
		flush()
	} else {
		s.completed.Add(1)
	}

	stats := s.Stats()
	summary := Record{
		Type:     "summary",
		Total:    len(exps),
		Failed:   harness.Failed(results),
		TimedOut: timedOut,
		Stats:    &stats,
		Rendered: harness.RenderSummary(results, req.CSV, nil),
	}
	enc.Encode(summary)
	flush()
	s.logf("server: sweep finished: %d/%d ok, timedOut=%v", len(exps)-summary.Failed, len(exps), timedOut)
}

// maxRequestBytes bounds a /sweep or /optimize request body. Bodies are
// decoded while the request holds an admission slot, so an unbounded
// body would let one client pin a slot and memory for as long as it
// keeps sending.
const maxRequestBytes = 1 << 20

// decodeRequest decodes the JSON request body into v, answering 413
// when the body exceeds maxRequestBytes and 400 when it is malformed.
// It reports whether v was decoded.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes), http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	return false
}

// ErrDeadline is the error recorded for experiments still in flight
// when a sweep's wall-clock deadline expires.
var ErrDeadline = errors.New("request deadline exceeded before experiment completed")

// acceptsGzip reports whether the request negotiated a gzip response
// (an Accept-Encoding member "gzip", possibly q-weighted, not q=0).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(enc) != "gzip" {
			continue
		}
		if hasQ {
			if v, ok := strings.CutPrefix(strings.TrimSpace(q), "q="); ok && strings.TrimSpace(v) == "0" {
				return false
			}
		}
		return true
	}
	return false
}

// resolve expands and validates the requested experiment IDs.
func (s *Server) resolve(ids []string) ([]harness.Experiment, error) {
	if len(ids) == 0 {
		return nil, errors.New("no experiments requested")
	}
	if len(ids) == 1 && ids[0] == "all" {
		return s.cfg.All(), nil
	}
	exps := make([]harness.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := s.cfg.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// runConfig maps a SweepRequest onto the supervisor configuration,
// mirroring the CLI flag semantics exactly (so HTTP results are
// byte-identical to local runs of the same configuration).
func (s *Server) runConfig(req SweepRequest) harness.RunConfig {
	cfg := harness.RunConfig{
		Seed:    req.Seed,
		Faults:  req.Faults,
		Retries: harness.DefaultRetries,
		Engine:  s.cfg.Engine,
	}
	if req.Retries != nil {
		cfg.Retries = *req.Retries
	}
	if req.CycleBudget != nil {
		if *req.CycleBudget == 0 {
			cfg.CycleBudget = harness.NoCycleBudget
		} else {
			cfg.CycleBudget = *req.CycleBudget
		}
	}
	return cfg
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
