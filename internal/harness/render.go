package harness

import (
	"fmt"
	"strconv"
	"strings"

	"spectrebench/internal/engine"
)

// RenderResults renders a supervised batch exactly as the CLI prints it:
// each result's table (or failure report) in input order, then the
// summary table, annotated with eng's cell-cache statistics when eng is
// non-nil. The CLI and the determinism tests share this function, so
// "byte-identical output" means the same bytes everywhere.
//
// Cache hit/miss totals depend only on the multiset of submitted cell
// keys — never on worker count or scheduling order — so the stats line
// is as deterministic as the tables above it.
func RenderResults(results []Result, csv bool, eng *engine.Engine) string {
	var b strings.Builder
	for _, res := range results {
		b.WriteString(RenderResult(res, csv))
	}
	b.WriteString(RenderSummary(results, csv, eng))
	return b.String()
}

// RenderResult renders one supervised result exactly as it appears in
// the batch output: the table (text or CSV) for a completed
// experiment, or the inline failure block for anything else. The
// server streams this per-experiment, so a result fetched over HTTP is
// byte-identical to the same result rendered locally.
func RenderResult(res Result, csv bool) string {
	var b strings.Builder
	switch {
	case res.Status == StatusOK && csv:
		b.WriteString(res.Table.CSV())
	case res.Status == StatusOK:
		const cycles = "M simulated cycles)\n\n"
		res.Table.render(&b, len("(, ")+len(res.Paper)+24+len(cycles))
		b.WriteByte('(')
		b.WriteString(res.Paper)
		b.WriteString(", ")
		var num [24]byte
		b.Write(strconv.AppendFloat(num[:0], float64(res.Cycles)/1e6, 'f', 1, 64))
		b.WriteString(cycles)
	default:
		// Graceful degradation: report inline and keep going.
		fmt.Fprintf(&b, "%s — %s\n  status: %s\n  error:  %v\n\n", res.ID, res.Title, res.Status, res.Err)
	}
	return b.String()
}

// RenderSummary renders the batch summary table, annotated with eng's
// cell-cache note when eng is non-nil.
func RenderSummary(results []Result, csv bool, eng *engine.Engine) string {
	summary := SummaryTable(results)
	if eng != nil {
		summary.Notes = append(summary.Notes, CacheNote(eng))
	}
	if csv {
		return summary.CSV()
	}
	return summary.Render()
}

// CacheNote summarizes the engine's cell cache in one line. The worker
// count is deliberately omitted: the note must not vary with -jobs. The
// CLI prints it to stderr; passing a non-nil engine to RenderSummary
// embeds it in the summary table instead (the determinism tests do).
func CacheNote(eng *engine.Engine) string {
	hits, misses := eng.Stats()
	total := hits + misses
	if total == 0 {
		return "cell cache: no cells scheduled"
	}
	return fmt.Sprintf("cell cache: %d cells simulated, %d reused (%.1f%% hit rate)",
		misses, hits, float64(hits)/float64(total)*100)
}
