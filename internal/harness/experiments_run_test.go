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
