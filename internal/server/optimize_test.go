package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/optimize"
)

// postOptimize POSTs a request and decodes the NDJSON stream into
// typed records.
func postOptimize(t *testing.T, url string, req OptimizeRequest) []OptimizeRecord {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /optimize: status %d", resp.StatusCode)
	}
	var recs []OptimizeRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec OptimizeRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestOptimizeEndpointStreamsPerUarchRecords: /optimize streams one
// uarch record per searched model plus a summary whose totals match,
// and the optimum agrees with an in-process search on the same
// reduced lattice.
func TestOptimizeEndpointStreamsPerUarchRecords(t *testing.T) {
	eng := engine.New(4)
	t.Cleanup(eng.Close)
	srv, hs := newTestServer(t, Config{Engine: eng})

	req := OptimizeRequest{
		Uarchs: []string{"Skylake Client", "Zen 2"},
		Combos: 336,
	}
	recs := postOptimize(t, hs.URL, req)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 2 uarch + 1 summary", len(recs))
	}
	for i, uarch := range []string{"Skylake Client", "Zen 2"} {
		rec := recs[i]
		if rec.Type != "uarch" || rec.Uarch == nil || rec.Uarch.Uarch != uarch {
			t.Fatalf("records[%d] = %+v, want uarch record for %s", i, rec, uarch)
		}
		if rec.Uarch.Best == nil {
			t.Errorf("%s: no optimum found", uarch)
		}
	}
	sum := recs[2]
	if sum.Type != "summary" || sum.Result == nil || sum.Stats == nil {
		t.Fatalf("last record = %+v, want summary with result and stats", sum)
	}
	if sum.Result.PerUarch != nil {
		t.Error("summary duplicates the per-uarch records")
	}
	if sum.Result.Totals.Evaluated == 0 || sum.Result.Totals.Pruned == 0 {
		t.Errorf("summary totals = %+v, want evaluated and pruned nonzero", sum.Result.Totals)
	}

	// The served optimum must match a local search of the same lattice
	// (HTTP adds transport, not semantics).
	local, err := optimize.Search(eng, func() optimize.Options {
		opts, err := resolveOptimize(req)
		if err != nil {
			t.Fatal(err)
		}
		return opts
	}())
	if err != nil {
		t.Fatal(err)
	}
	for i := range local.PerUarch {
		want, got := local.PerUarch[i].Best, recs[i].Uarch.Best
		if want.Canon != got.Canon || want.Cost != got.Cost {
			t.Errorf("%s: served optimum (%s, %v) != local (%s, %v)",
				local.PerUarch[i].Uarch, got.Canon, got.Cost, want.Canon, want.Cost)
		}
	}

	// Satellite counters: /statsz now carries the optimize section.
	stats := srv.Stats()
	if stats.Optimize == nil {
		t.Fatal("StatsSnapshot.Optimize missing after a search")
	}
	if stats.Optimize.Searches != 1 {
		t.Errorf("searches = %d, want 1", stats.Optimize.Searches)
	}
	if stats.Optimize.Evaluated == 0 || stats.Optimize.Pruned == 0 || stats.Optimize.Simulated == 0 {
		t.Errorf("optimize stats = %+v, want nonzero evaluated/pruned/simulated", stats.Optimize)
	}
}

// TestOptimizeEndpointRejectsBadRequirement: an unknown attack ID is a
// 400 before any work is admitted.
func TestOptimizeEndpointRejectsBadRequirement(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	body, _ := json.Marshal(OptimizeRequest{Require: "no-such-attack"})
	resp, err := http.Post(hs.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := srv.Stats().Server.Accepted; got != 0 {
		t.Errorf("accepted = %d, want 0", got)
	}
}

// TestOptimizeEndpointDrainRefuses: a draining server refuses new
// searches with 503, matching /sweep.
func TestOptimizeEndpointDrainRefuses(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	srv.BeginDrain()
	body, _ := json.Marshal(OptimizeRequest{Combos: 21, Uarchs: []string{"Zen 2"}})
	resp, err := http.Post(hs.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After hint")
	}
}

// TestOptimizeEndpointFaultedSeedIsolated: a faulted search carries its
// activation in a scope, so it neither perturbs nor replays the
// fault-free cells already in the engine memo — the same request with
// faults off still returns the clean costs.
func TestOptimizeEndpointFaultedSeedIsolated(t *testing.T) {
	eng := engine.New(2)
	t.Cleanup(eng.Close)
	_, hs := newTestServer(t, Config{Engine: eng})

	req := OptimizeRequest{Uarchs: []string{"Zen 2"}, Combos: 336}
	clean := postOptimize(t, hs.URL, req)

	faulted := req
	faulted.Faults = true
	faulted.Seed = 20260808
	postOptimize(t, hs.URL, faulted)

	again := postOptimize(t, hs.URL, req)
	cj, _ := json.Marshal(clean[0].Uarch)
	aj, _ := json.Marshal(again[0].Uarch)
	if string(cj) != string(aj) {
		t.Errorf("fault-free result changed after a faulted search:\nbefore: %s\nafter:  %s", cj, aj)
	}
}

// TestOptimizeEndpointDedupesUarchsAndWorkloads: a request naming a
// uarch twice, and one workload under its full name and its shorthand,
// streams one uarch record and a summary identical to the request that
// names each once — no doubled cost, no doubled combo count.
func TestOptimizeEndpointDedupesUarchsAndWorkloads(t *testing.T) {
	eng := engine.New(2)
	t.Cleanup(eng.Close)
	_, hs := newTestServer(t, Config{Engine: eng})

	once := OptimizeRequest{Uarchs: []string{"Zen"}, Workloads: []string{"getpid"}, Combos: 336}
	twice := OptimizeRequest{
		Uarchs:    []string{"Zen", "Zen"},
		Workloads: []string{"getpid", "grid/lebench/getpid"},
		Combos:    336,
	}
	want := postOptimize(t, hs.URL, once)
	got := postOptimize(t, hs.URL, twice)
	if len(got) != 2 || got[0].Type != "uarch" || got[1].Type != "summary" {
		t.Fatalf("got %d records, want 1 uarch + 1 summary", len(got))
	}
	gj, _ := json.Marshal(got[0].Uarch)
	wj, _ := json.Marshal(want[0].Uarch)
	if string(gj) != string(wj) {
		t.Errorf("uarch record differs from the single-name request:\n got:  %s\n want: %s", gj, wj)
	}
	if g, w := got[1].Result.Totals, want[1].Result.Totals; g != w {
		t.Errorf("summary totals = %+v, want %+v", g, w)
	}
	if ws := got[1].Result.Workloads; len(ws) != 1 || ws[0] != "grid/lebench/getpid" {
		t.Errorf("summary workloads = %v, want [grid/lebench/getpid]", ws)
	}
}
