// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on this repository's substrate: synthetic dataset
// replicas, from-scratch kernels, and the SGD baselines standing in for
// GraphVite and PyTorch-BigGraph. Each experiment returns a Report that
// cmd/lightne-bench prints and bench_test.go wraps as a testing.B target.
//
// Absolute numbers differ from the paper (different hardware, different
// data); the claims under test are the *shapes*: who wins, by roughly what
// factor, and how metrics move along each sweep. EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Report is one regenerated table or figure.
type Report struct {
	ID       string   // e.g. "E4"
	Title    string   // e.g. "Table 4: OAG node classification"
	PaperRef string   // one-line summary of what the paper reports
	Headers  []string // table header
	Rows     [][]string
	Notes    []string // scaling caveats, substitutions
	Elapsed  time.Duration
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperRef != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperRef)
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, "(experiment wall clock: %s)\n", r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// pct formats a fraction as a percentage with two decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f", 100*v) }

// dur formats a duration rounded to milliseconds.
func dur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// Options tunes experiment cost globally.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks sweeps and sample budgets (~10× cheaper) for smoke
	// runs and testing.B integration.
	Quick bool
}

// Runner maps experiment IDs to their functions.
type Runner func(Options) (*Report, error)

// All returns every experiment keyed by lower-case ID, in presentation
// order via Order.
func All() map[string]Runner {
	return map[string]Runner{
		"e1":  E1PBGComparison,
		"e2":  E2GraphViteF1,
		"e3":  E3HyperlinkAUC,
		"e4":  E4OAGTable4,
		"e5":  E5TradeoffCurve,
		"e6":  E6TimeBreakdown,
		"e7":  E7SampleSizeAblation,
		"e8":  E8VeryLargeHITS,
		"e9":  E9SmallGraphs,
		"e10": E10DatasetStats,
		"e11": E11DynamicEmbedding,
		"e12": E12AggregationStrategies,
		"e13": E13CompressionScaling,
		"e14": E14FactorizationModes,
	}
}

// Order lists experiment IDs in presentation order. E1-E10 regenerate the
// paper's artifacts; E11-E14 are extension experiments (future work and
// design-space tables).
func Order() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14"}
}
