// The /optimize endpoint: config-search-as-a-service. It reuses the
// sweep plumbing — admission semaphore, per-request deadline, buffered
// NDJSON streaming with gzip negotiation, drain awareness — but runs
// the dominance-pruned optimizer instead of an experiment batch. Fault
// injection is carried in a simscope entered around the search
// goroutine, so concurrent optimize and sweep requests with different
// seeds cannot interfere.
package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"spectrebench/internal/attacks"
	"spectrebench/internal/faultinject"
	"spectrebench/internal/grid"
	"spectrebench/internal/optimize"
	"spectrebench/internal/simscope"
)

// OptimizeRequest is the body of POST /optimize.
type OptimizeRequest struct {
	// Require is the attack requirement spec ("default", "all", or a
	// comma-separated ID list). Empty means "default".
	Require string `json:"require,omitempty"`
	// Workloads lists cost-objective workload names (grid registry
	// names or bare suffixes). Empty means the default grid workload.
	Workloads []string `json:"workloads,omitempty"`
	// Uarchs restricts the search to these model names. Empty means
	// every simulated uarch.
	Uarchs []string `json:"uarchs,omitempty"`
	// Combos restricts the lattice to the first n combos per uarch
	// (0 = full; negative is rejected).
	Combos int `json:"combos,omitempty"`
	// Seed/Faults mirror the CLI flags.
	Seed   uint64 `json:"seed,omitempty"`
	Faults bool   `json:"faults,omitempty"`
	// TimeoutMs tightens the server's request deadline (0 = server
	// default; clamped to the server cap).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// OptimizeRecord is one NDJSON line of an /optimize response: one
// "uarch" record per searched uarch, then a "summary" record (or a
// "deadline" record when the request deadline expired first).
type OptimizeRecord struct {
	Type  string                `json:"type"`
	Uarch *optimize.UarchResult `json:"uarch,omitempty"`
	// Result carries the search totals on the summary record, with
	// PerUarch stripped (already streamed).
	Result *optimize.Result `json:"result,omitempty"`
	Err    string           `json:"error,omitempty"`
	Stats  *StatsSnapshot   `json:"stats,omitempty"`
}

// OptimizeStats aggregates optimizer activity for /statsz: how much
// lattice the searches examined and how little of it they paid to
// evaluate (satellite counters for observing pruning effectiveness
// without a profiler).
type OptimizeStats struct {
	Searches  uint64 `json:"searches"`
	Examined  uint64 `json:"examined"`
	Classes   uint64 `json:"classes"`
	Secure    uint64 `json:"secure"`
	Evaluated uint64 `json:"evaluated"`
	Pruned    uint64 `json:"pruned"`
	Errored   uint64 `json:"errored"`
	// Simulated/Replayed are the engine-attributed cell counts of the
	// searches (simulated on the pool vs replayed from the store).
	Simulated uint64 `json:"simulated"`
	Replayed  uint64 `json:"replayed"`
}

// optCounters holds the server's optimizer accumulation (a separate
// struct so Server stays declaration-compatible).
type optCounters struct {
	searches, examined, classes, secure atomic.Uint64
	evaluated, pruned, errored          atomic.Uint64
	simulated, replayed                 atomic.Uint64
}

func (o *optCounters) record(res *optimize.Result) {
	o.searches.Add(1)
	o.examined.Add(uint64(res.Totals.Examined))
	o.classes.Add(uint64(res.Totals.Classes))
	o.secure.Add(uint64(res.Totals.Secure))
	o.evaluated.Add(uint64(res.Totals.Evaluated))
	o.pruned.Add(uint64(res.Totals.Pruned))
	o.errored.Add(uint64(res.Totals.Errored))
	o.simulated.Add(res.Engine.Simulated)
	o.replayed.Add(res.Engine.SecondLevelHits)
}

func (o *optCounters) snapshot() *OptimizeStats {
	return &OptimizeStats{
		Searches:  o.searches.Load(),
		Examined:  o.examined.Load(),
		Classes:   o.classes.Load(),
		Secure:    o.secure.Load(),
		Evaluated: o.evaluated.Load(),
		Pruned:    o.pruned.Load(),
		Errored:   o.errored.Load(),
		Simulated: o.simulated.Load(),
		Replayed:  o.replayed.Load(),
	}
}

// resolveOptimize maps an OptimizeRequest onto search options.
func resolveOptimize(req OptimizeRequest) (optimize.Options, error) {
	opts := optimize.Options{Combos: req.Combos, Prune: true}
	if req.Combos < 0 {
		return opts, fmt.Errorf("combos must be 0 (full lattice) or positive, got %d", req.Combos)
	}
	spec := req.Require
	if spec == "" {
		spec = "default"
	}
	var err error
	if opts.Require, err = attacks.ParseRequirement(spec); err != nil {
		return opts, err
	}
	for _, name := range req.Workloads {
		w, err := grid.LookupWorkload(name)
		if err != nil {
			return opts, err
		}
		opts.Workloads = append(opts.Workloads, w)
	}
	if opts.Uarchs, err = optimize.SelectUarchs(req.Uarchs); err != nil {
		return opts, err
	}
	if req.Faults {
		opts.Seed = req.Seed
	}
	return opts, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Same admission policy as /sweep: a search shares the inflight
	// budget, and its slot is held until the search's engine work is
	// actually done even if the handler returns early on deadline.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "capacity saturated, retry later", http.StatusTooManyRequests)
		return
	}
	admitted := false
	defer func() {
		if !admitted {
			<-s.sem
		}
	}()

	var req OptimizeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	opts, err := resolveOptimize(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

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
	s.logf("server: optimize admitted: require=%s workloads=%d uarchs=%d faults=%v timeout=%s",
		strings.Join(attacks.IDs(opts.Require), ","), len(opts.Workloads), len(opts.Uarchs), req.Faults, timeout)

	type outcome struct {
		res *optimize.Result
		err error
	}
	resCh := make(chan outcome, 1)
	s.work.Add(1)
	go func() {
		defer s.work.Done()
		defer func() { <-s.sem }()
		// Fault activation rides in a scope: Submit derives each cell's
		// scope from this parent, so two concurrent searches (or a
		// search next to a faulted sweep) with different seeds stay
		// independent.
		sc := &simscope.Scope{}
		if req.Faults {
			sc.Fault = faultinject.NewActivation(faultinject.Config{})
		}
		restore := simscope.Enter(sc)
		res, err := optimize.Search(s.cfg.Engine, opts)
		restore()
		sc.Release()
		resCh <- outcome{res, err}
	}()

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

	select {
	case out := <-resCh:
		if out.err != nil {
			s.completed.Add(1)
			enc.Encode(OptimizeRecord{Type: "summary", Err: out.err.Error()})
			flush()
			return
		}
		s.opt.record(out.res)
		for i := range out.res.PerUarch {
			enc.Encode(OptimizeRecord{Type: "uarch", Uarch: &out.res.PerUarch[i]})
			flush()
		}
		totals := *out.res
		totals.PerUarch = nil
		stats := s.Stats()
		enc.Encode(OptimizeRecord{Type: "summary", Result: &totals, Stats: &stats})
		flush()
		s.completed.Add(1)
		s.logf("server: optimize finished: %d classes evaluated, %d pruned",
			out.res.Totals.Evaluated, out.res.Totals.Pruned)
	case <-ctx.Done():
		// The search keeps running (its cells are cycle-budget-bounded)
		// and the admission slot stays held until it finishes.
		s.timedOut.Add(1)
		enc.Encode(OptimizeRecord{Type: "deadline", Err: ErrDeadline.Error()})
		flush()
	}
}
