// Package harness defines one runnable experiment per table and figure
// of the paper and renders their results, alongside the paper-reported
// values where the paper gives them. This is the layer the
// spectrebench CLI and the repository's benchmark suite drive.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	t.render(&b, 0)
	return b.String()
}

// render appends Render's text to b, growing b once for it and extra
// more bytes. Each cell is left-aligned and padded with spaces as
// fmt's %-*s would: widths are measured in bytes, padding in runes.
func (t *Table) render(b *strings.Builder, extra int) {
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
	size := len(t.ID) + len(t.Title) + len(" — \n") + extra
	for _, w := range widths {
		size += (w + 2) * (len(t.Rows) + 2)
	}
	for _, n := range t.Notes {
		size += len("note: \n") + len(n)
	}
	b.Grow(size)

	b.WriteString(t.ID)
	b.WriteString(" — ")
	b.WriteString(t.Title)
	b.WriteByte('\n')
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := widths[i] - utf8.RuneCountInString(cell); pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		for ; w > 0; w-- {
			b.WriteByte('-')
		}
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
}

// CSV renders the table as RFC 4180 comma-separated values: any cell
// containing a comma, double quote or line break is quoted, with
// embedded quotes doubled. Most cells in this repository need no
// quoting, but error summaries and free-form titles must not be able to
// corrupt the row structure.
func (t *Table) CSV() string {
	var b strings.Builder
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c))
		}
		b.WriteByte('\n')
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// csvCell quotes one CSV field per RFC 4180 when needed.
func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the canonical name ("table3", "fig2", "vm-lfs", ...).
	ID string
	// Paper names the table/figure or section reproduced.
	Paper string
	// Title is a one-line description.
	Title string
	// Run executes the experiment.
	Run func() (*Table, error)
}

// The registry is a map so Lookup is O(1) and duplicate IDs fail fast at
// registration; All memoizes its sorted view (invalidated by register)
// instead of re-sorting on every call. The mutex exists because All and
// Lookup are now called from engine workers, not just the main
// goroutine.
var (
	registryMu sync.Mutex
	registry   = map[string]Experiment{}
	allCache   []Experiment
)

func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
	allCache = nil
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	if allCache == nil {
		allCache = make([]Experiment, 0, len(registry))
		for _, e := range registry {
			allCache = append(allCache, e)
		}
		sort.Slice(allCache, func(i, j int) bool { return allCache[i].ID < allCache[j].ID })
	}
	return append([]Experiment(nil), allCache...)
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// cyc formats a cycle count.
func cyc(f float64) string { return fmt.Sprintf("%.0f", f) }

func check(b bool) string {
	if b {
		return "yes"
	}
	return ""
}
