package harness

import (
	"strconv"
	"strings"
	"testing"

	"spectrebench/internal/model"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablations", "fig2", "fig3", "fig5", "lebench-detail", "parsec-default", "security", "smt-cost",
		"table1", "table10", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9",
		"vm-lebench", "vm-lfs", "whatif-v1hw",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
	if _, ok := Lookup("table3"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a ghost")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "longcolumn"},
		Rows:    [][]string{{"v1", "v2"}, {"wide-value", "w"}},
		Notes:   []string{"a note"},
	}
	out := tb.Render()
	if !strings.Contains(out, "x — demo") || !strings.Contains(out, "longcolumn") ||
		!strings.Contains(out, "wide-value") || !strings.Contains(out, "note: a note") {
		t.Errorf("render output:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,longcolumn\n") {
		t.Errorf("csv output:\n%s", csv)
	}
}

func parseNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// Table 3: measured syscall/sysret must match the paper values closely
// (the simulator executes the same instructions the model prices).
func TestTable3MatchesPaper(t *testing.T) {
	tb, err := runScoped(runTable3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		meas, paper := parseNum(t, row[1]), parseNum(t, row[2])
		if diff := meas - paper; diff < -3 || diff > 3 {
			t.Errorf("%s: syscall measured %v vs paper %v", row[0], meas, paper)
		}
		meas, paper = parseNum(t, row[3]), parseNum(t, row[4])
		if diff := meas - paper; diff < -6 || diff > 6 {
			t.Errorf("%s: sysret measured %v vs paper %v", row[0], meas, paper)
		}
		if row[0] == "Broadwell" || row[0] == "Skylake Client" {
			meas, paper = parseNum(t, row[5]), parseNum(t, row[6])
			if diff := meas - paper; diff < -3 || diff > 3 {
				t.Errorf("%s: swap cr3 measured %v vs paper %v", row[0], meas, paper)
			}
		} else if row[5] != "N/A" {
			t.Errorf("%s: swap cr3 should be N/A", row[0])
		}
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tb, err := runScoped(runTable4)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		meas := parseNum(t, row[1])
		if row[2] != "N/A" {
			paper := parseNum(t, row[2])
			if diff := meas - paper; diff < -3 || diff > 3 {
				t.Errorf("%s: verw measured %v vs paper %v", row[0], meas, paper)
			}
		} else if meas > 60 {
			t.Errorf("%s: legacy verw measured %v, want tens of cycles", row[0], meas)
		}
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	tb, err := runScoped(runTable6)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		meas, paper := parseNum(t, row[1]), parseNum(t, row[2])
		if rel := (meas - paper) / paper; rel < -0.05 || rel > 0.05 {
			t.Errorf("%s: IBPB measured %v vs paper %v", row[0], meas, paper)
		}
	}
}

func TestTable8MatchesPaper(t *testing.T) {
	tb, err := runScoped(runTable8)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		meas, paper := parseNum(t, row[1]), parseNum(t, row[2])
		if diff := meas - paper; diff < -4 || diff > 4 {
			t.Errorf("%s: lfence measured %v vs paper %v", row[0], meas, paper)
		}
	}
}

// Table 5: the AMD retpoline delta is calibrated exactly; the generic
// retpoline is emergent and must land within a plausible band.
func TestTable5Sanity(t *testing.T) {
	tb, err := runScoped(runTable5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if !strings.Contains(row[3], "+") {
			t.Errorf("%s: generic retpoline column %q", row[0], row[3])
		}
	}
	// Spot checks: Broadwell baseline ≈ model's IndirectBase.
	bw := tb.Rows[0]
	base := parseNum(t, bw[1])
	want := float64(model.Broadwell().Costs.IndirectBase)
	if base < want-4 || base > want+8 {
		t.Errorf("Broadwell indirect baseline = %v, model %v", base, want)
	}
}

// Table 1 must reproduce the paper's checkmark pattern.
func TestTable1Pattern(t *testing.T) {
	tb, err := runScoped(runTable1)
	if err != nil {
		t.Fatal(err)
	}
	find := func(mitigation string) []string {
		for _, row := range tb.Rows {
			if row[1] == mitigation {
				return row[2:]
			}
		}
		t.Fatalf("row %q missing", mitigation)
		return nil
	}
	// PTI: only the first two CPUs (Broadwell, Skylake).
	pti := find("Page Table Isolation")
	wantPTI := []string{"✓", "✓", "", "", "", "", "", ""}
	for i := range wantPTI {
		if pti[i] != wantPTI[i] {
			t.Errorf("PTI column %d = %q, want %q", i, pti[i], wantPTI[i])
		}
	}
	// eIBRS: Cascade Lake + both Ice Lakes.
	eibrs := find("Enhanced IBRS")
	wantE := []string{"", "", "✓", "✓", "✓", "", "", ""}
	for i := range wantE {
		if eibrs[i] != wantE[i] {
			t.Errorf("eIBRS column %d = %q, want %q", i, eibrs[i], wantE[i])
		}
	}
	// SSBD is "!" everywhere.
	for i, v := range find("SSBD") {
		if v != "!" {
			t.Errorf("SSBD column %d = %q, want !", i, v)
		}
	}
	// Everyone gets RSB stuffing and eager FPU.
	for i, v := range find("RSB Stuffing") {
		if v != "✓" {
			t.Errorf("RSB column %d = %q", i, v)
		}
	}
}

// Fig 2 totals must track the paper's shape: big on old Intel, small on
// new Intel and AMD.
func TestFig2Shape(t *testing.T) {
	tb, err := runScoped(runFig2)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	for _, row := range tb.Rows {
		totals[row[0]] = parseNum(t, row[6])
	}
	if totals["Broadwell"] < 15 {
		t.Errorf("Broadwell total = %v%%, want substantial", totals["Broadwell"])
	}
	if totals["Ice Lake Server"] > 8 {
		t.Errorf("Ice Lake Server total = %v%%, want small", totals["Ice Lake Server"])
	}
	if totals["Ice Lake Server"] >= totals["Broadwell"] {
		t.Error("overheads should decline across Intel generations")
	}
	if totals["Zen 3"] >= totals["Broadwell"] {
		t.Error("AMD should be far below old Intel")
	}
}

func TestProbeTablesRender(t *testing.T) {
	t9, err := runScoped(func() (*Table, error) { return runProbeTable("table9", false) })
	if err != nil {
		t.Fatal(err)
	}
	// Broadwell row: all five columns checked.
	for i := 1; i <= 5; i++ {
		if t9.Rows[0][i] != "✓" {
			t.Errorf("table9 Broadwell col %d = %q", i, t9.Rows[0][i])
		}
	}
	// Zen 3 row: all blank.
	zen3 := t9.Rows[7]
	for i := 1; i <= 5; i++ {
		if zen3[i] != "" {
			t.Errorf("table9 Zen 3 col %d = %q", i, zen3[i])
		}
	}
	t10, err := runScoped(func() (*Table, error) { return runProbeTable("table10", true) })
	if err != nil {
		t.Fatal(err)
	}
	// Zen: unsupported.
	if t10.Rows[5][1] != "N/A" {
		t.Errorf("table10 Zen = %q, want N/A", t10.Rows[5][1])
	}
	// Ice Lake Client: u→u works, k→k blocked.
	icl := t10.Rows[3]
	if icl[2] != "✓" || icl[3] != "" || icl[4] != "✓" || icl[5] != "" {
		t.Errorf("table10 Ice Lake Client row: %v", icl)
	}
}

// Golden render of Table 1: the full checkmark grid is the paper's most
// recognisable artifact; lock its shape.
func TestTable1GoldenRender(t *testing.T) {
	tb, err := runScoped(runTable1)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{
		"Meltdown            Page Table Isolation  ✓          ✓",
		"Spec. Store Bypass  SSBD                  !          !",
		"Spectre V2          Enhanced IBRS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("golden fragment missing:\n%s\n---\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") < 16 {
		t.Error("table suspiciously short")
	}
}

// CSV output round-trips the same cell count as the text renderer.
func TestCSVCellCounts(t *testing.T) {
	tb, err := runScoped(runTable2)
	if err != nil {
		t.Fatal(err)
	}
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(tb.Rows)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(tb.Rows)+1)
	}
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != len(tb.Columns) {
			t.Errorf("line %d: %d cells, want %d", i, got, len(tb.Columns))
		}
	}
}
