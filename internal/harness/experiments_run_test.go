package harness

import (
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes the full registry once (the slower
// end-to-end experiments are skipped under -short). Each must produce a
// non-empty, renderable table with one row per CPU where applicable.
func TestEveryExperimentRuns(t *testing.T) {
	slow := map[string]bool{"fig2": true, "fig3": true, "whatif-v1hw": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slow[e.ID] {
				t.Skip("slow experiment skipped in -short mode")
			}
			tbl, err := runScoped(e.Run)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s: row %d has %d cells, want %d", e.ID, i, len(row), len(tbl.Columns))
				}
			}
			out := tbl.Render()
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s: render missing id", e.ID)
			}
		})
	}
}

// The security experiment's matrix must never contain a NOT-BLOCKED or
// unexpected NO-LEAK cell — that would mean a mitigation stopped working
// or an attack regressed.
func TestSecurityMatrixClean(t *testing.T) {
	tbl, err := runScoped(runSecurity)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for i, cell := range row[1:] {
			if strings.Contains(cell, "NOT-BLOCKED") || cell == "NO-LEAK" {
				t.Errorf("%s / %s: %q", row[0], tbl.Columns[i+1], cell)
			}
		}
	}
}

// The §7 what-if must recover a positive fraction on every CPU while
// never exceeding the total guard cost.
func TestWhatIfV1HW(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl, err := runScoped(runWhatIfV1HW)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		rec := parseNum(t, row[3])
		if rec <= 0 || rec > 10 {
			t.Errorf("%s: recovered %.2f%%, want (0,10]", row[0], rec)
		}
	}
}

// Every ablation must move in the direction the paper argues and stay
// inside a stated band (percent change of the variant arm over the
// baseline arm): losing PCIDs makes PTI markedly dearer (§5.1), generic
// retpolines cost Zen 2 a few percent over AMD's (§5.3), lazy FPU
// switching is a large slowdown for FPU users that reschedule (§3.1),
// and RSB stuffing is nearly free on LEBench (§5.3).
func TestAblationsWithinBands(t *testing.T) {
	tbl, err := runScoped(runAblations)
	if err != nil {
		t.Fatal(err)
	}
	bands := map[string][2]float64{
		"PCIDs under PTI":   {10, 40},
		"retpoline flavour": {1, 10},
		"FPU switching":     {30, 100},
		"RSB stuffing":      {0.05, 2},
	}
	if len(tbl.Rows) != len(bands) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(bands))
	}
	for _, row := range tbl.Rows {
		band, ok := bands[row[0]]
		if !ok {
			t.Errorf("unexpected ablation %q", row[0])
			continue
		}
		if got := parseNum(t, row[len(row)-1]); got < band[0] || got > band[1] {
			t.Errorf("%s on %s: %+.2f%%, want within [%+g%%, %+g%%]", row[0], row[2], got, band[0], band[1])
		}
	}
}
