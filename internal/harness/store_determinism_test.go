package harness

import (
	"testing"

	"spectrebench/internal/engine"
	"spectrebench/internal/store"
)

// renderBatchStore renders the batch on a throwaway engine backed by
// the cell store at dir, returning the rendered bytes and the store's
// final counters.
func renderBatchStore(t *testing.T, exps []Experiment, dir string, faults bool) (string, store.Stats) {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	defer st.Close()
	eng := engine.New(4)
	defer eng.Close()
	eng.SetSecondLevel(st)
	cfg := RunConfig{Seed: 7, Faults: faults, Retries: DefaultRetries, Engine: eng}
	out := RenderResults(SuperviseAll(exps, cfg), false, eng)
	return out, st.Stats()
}

// TestStoreReplayByteIdentical extends the determinism guarantee to the
// persistent store: the rendered output of a batch must be
// byte-identical with no store, with a cold store (every cell
// simulated and persisted), and with a warm store (every persistable
// cell replayed from disk). The store may change only where the bytes
// come from — never what they are.
func TestStoreReplayByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("store batch runs are slow")
	}
	exps := lookupAll(t, []string{"table3", "fig3", "whatif-v1hw"})

	for _, faults := range []bool{false, true} {
		want := renderBatch(t, exps, 4, faults)

		dir := t.TempDir()
		cold, coldStats := renderBatchStore(t, exps, dir, faults)
		if cold != want {
			t.Errorf("faults=%v: cold-store output differs from store-less output\n--- store-less ---\n%s\n--- cold store ---\n%s", faults, want, cold)
		}
		if coldStats.Puts == 0 {
			t.Errorf("faults=%v: cold run persisted no cells", faults)
		}

		warm, warmStats := renderBatchStore(t, exps, dir, faults)
		if warm != want {
			t.Errorf("faults=%v: warm-store output differs from store-less output\n--- store-less ---\n%s\n--- warm store ---\n%s", faults, want, warm)
		}
		if warmStats.Hits == 0 {
			t.Errorf("faults=%v: warm run served no cells from the store", faults)
		}
		if warmStats.Puts != 0 {
			t.Errorf("faults=%v: warm run re-wrote %d cells; replay must not churn the store", faults, warmStats.Puts)
		}
		if warmStats.Quarantined != 0 {
			t.Errorf("faults=%v: warm run quarantined %d entries", faults, warmStats.Quarantined)
		}
	}
}
