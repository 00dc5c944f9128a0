package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spectrebench/internal/engine"
)

// TestBadRequestBodiesRefusedBeforeAdmission: a body over the size
// limit is a 413 on both endpoints and a negative lattice prefix is a
// 400 on /optimize; neither is admitted, and the admission slot the
// handler held while decoding is released.
func TestBadRequestBodiesRefusedBeforeAdmission(t *testing.T) {
	oversized := `{"experiments":["` + strings.Repeat("a", maxRequestBytes) + `"]}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"sweep oversized", "/sweep", oversized, http.StatusRequestEntityTooLarge},
		{"optimize oversized", "/optimize", `{"require":"` + strings.Repeat(" ", maxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"optimize negative combos", "/optimize", `{"combos":-1}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, Config{})
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
			}
			st := srv.Stats().Server
			if st.Accepted != 0 || st.Inflight != 0 {
				t.Errorf("accepted = %d, inflight = %d; want the request refused and its slot released", st.Accepted, st.Inflight)
			}
		})
	}
}

// requestSeeds returns JSON encodings of the given requests, for fuzz
// corpora.
func requestSeeds(reqs ...any) [][]byte {
	var out [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzSweepRequest feeds arbitrary bytes through the /sweep request
// path up to the point work would be admitted: decode, experiment
// resolution and run-config mapping. It must never panic, and a
// resolved request always names at least one experiment.
//
//	go test -fuzz=FuzzSweepRequest ./internal/server
func FuzzSweepRequest(f *testing.F) {
	budget, retries := uint64(0), 2
	for _, b := range requestSeeds(
		SweepRequest{Experiments: []string{"a", "b", "c"}},
		SweepRequest{Experiments: []string{"slow"}},
		SweepRequest{Experiments: []string{"fast", "stuck"}, TimeoutMs: 300},
		SweepRequest{Experiments: []string{"table3"}, Seed: 7},
		SweepRequest{Experiments: []string{"all"}, Faults: true, Seed: 1, CycleBudget: &budget, Retries: &retries, CSV: true},
		SweepRequest{},
	) {
		f.Add(b)
	}
	for _, s := range []string{`{"experiments":["fast"]}`, `{"experiments":["a"]}`, `{}`, `[]`, `null`, `{"experiments":`} {
		f.Add([]byte(s))
	}
	eng := engine.New(1)
	f.Cleanup(eng.Close)
	srv := New(Config{Engine: eng})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		exps, err := srv.resolve(req.Experiments)
		if err != nil {
			return
		}
		if len(exps) == 0 {
			t.Fatalf("request %q resolved to no experiments", body)
		}
		srv.runConfig(req)
	})
}

// FuzzOptimizeRequest feeds arbitrary bytes through the /optimize
// request path up to the point a search would start: decode and option
// resolution. It must never panic, and resolved options never ask for a
// negative lattice prefix.
//
//	go test -fuzz=FuzzOptimizeRequest ./internal/server
func FuzzOptimizeRequest(f *testing.F) {
	noPrune := false
	for _, b := range requestSeeds(
		OptimizeRequest{Uarchs: []string{"Skylake Client", "Zen 2"}, Combos: 336},
		OptimizeRequest{Require: "no-such-attack"},
		OptimizeRequest{Combos: 21, Uarchs: []string{"Zen 2"}},
		OptimizeRequest{Uarchs: []string{"Zen 2"}, Combos: 336, Faults: true, Seed: 20260808},
		OptimizeRequest{Require: "all", Workloads: []string{"grid/vm/lfs/smallfile", "getpid"}, Prune: &noPrune, TimeoutMs: 50},
		OptimizeRequest{Combos: -1},
	) {
		f.Add(b)
	}
	for _, s := range []string{`{}`, `[]`, `null`, `{"combos":1e99}`, `{"uarchs":[""]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req OptimizeRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		opts, err := resolveOptimize(req)
		if err != nil {
			return
		}
		if opts.Combos < 0 {
			t.Fatalf("request %q resolved to combos %d", body, opts.Combos)
		}
	})
}
