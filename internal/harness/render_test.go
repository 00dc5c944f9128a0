package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// renderFmt is Table.Render as it was written with fmt, kept as the
// oracle for the padding loop: %-*s pads by runes to a width that
// Render measures in bytes.
func renderFmt(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// renderResultFmt is RenderResult's text form as it was written with
// fmt.
func renderResultFmt(res Result) string {
	var b strings.Builder
	switch {
	case res.Status == StatusOK:
		b.WriteString(renderFmt(res.Table))
		fmt.Fprintf(&b, "(%s, %.1fM simulated cycles)\n\n", res.Paper, float64(res.Cycles)/1e6)
	default:
		fmt.Fprintf(&b, "%s — %s\n  status: %s\n  error:  %v\n\n", res.ID, res.Title, res.Status, res.Err)
	}
	return b.String()
}

// randomTable draws a table whose cells mix ASCII and multi-byte text
// (so byte widths and rune padding disagree), cells wider than their
// header, empty cells, short rows and notes.
func randomTable(r *rand.Rand) *Table {
	words := []string{"", "a", "ok", "§5.1", "µs", "—", "日本語", "Cascade Lake", "+21.08%",
		"PCIDs off", "é", "x—y", "retpoline (generic)", "0.0", "\xff\xfe"}
	cell := func() string {
		var b strings.Builder
		for n := r.Intn(3); n >= 0; n-- {
			b.WriteString(words[r.Intn(len(words))])
		}
		return b.String()
	}
	t := &Table{ID: cell(), Title: cell()}
	for n := r.Intn(5); n >= 0; n-- {
		t.Columns = append(t.Columns, cell())
	}
	for n := r.Intn(6); n > 0; n-- {
		row := make([]string, r.Intn(len(t.Columns)+1))
		for i := range row {
			row[i] = cell()
		}
		t.Rows = append(t.Rows, row)
	}
	for n := r.Intn(3); n > 0; n-- {
		t.Notes = append(t.Notes, cell())
	}
	return t
}

// TestRenderMatchesFmtOracle: Render and RenderResult produce the bytes
// the fmt versions did, for random tables and cycle counts.
func TestRenderMatchesFmtOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cycles := []uint64{0, 1, 49_999, 50_000, 149_999, 1_250_000, 987_654_321, 1 << 53, ^uint64(0)}
	for k := 0; k < 2000; k++ {
		tb := randomTable(r)
		if got, want := tb.Render(), renderFmt(tb); got != want {
			t.Fatalf("table %d: Render differs from the fmt oracle\n got %q\nwant %q", k, got, want)
		}
		res := Result{ID: tb.ID, Title: tb.Title, Paper: "§4." + tb.ID, Status: StatusOK, Table: tb,
			Cycles: cycles[k%len(cycles)]}
		if k%len(cycles) == 0 {
			res.Cycles = r.Uint64() >> r.Intn(64)
		}
		if got, want := RenderResult(res, false), renderResultFmt(res); got != want {
			t.Fatalf("result %d: RenderResult differs from the fmt oracle\n got %q\nwant %q", k, got, want)
		}
	}
	failed := Result{ID: "x", Title: "§5.1 t", Status: StatusTimeout, Err: errors.New("budget")}
	if got, want := RenderResult(failed, false), renderResultFmt(failed); got != want {
		t.Errorf("failed result: got %q, want %q", got, want)
	}
}
