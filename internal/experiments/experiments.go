// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on top of the reproduction's substrates. Each runner
// returns a Table — headers, rows, and notes — that cmd/experiments renders
// and bench_test.go measures. DESIGN.md carries the experiment index; the
// expected *shape* (who wins, by what factor) is documented per runner and
// recorded against measurements in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/dataset"
	"repro/internal/estimate"
)

// Table is one rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", max(total, 8))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Scale sets the workload size. Quick keeps the full pipeline exercised in
// seconds for CI; Paper approaches the paper's dataset sizes (28 days
// hourly, 100 instances) and runs for hours, like the original experiments
// did.
type Scale struct {
	// Hours of measurement data per dataset.
	Hours int
	// Instances in the multi-instance experiments.
	Instances int
	// GA settings for every calibration.
	GA estimate.GAOptions
	// Seed drives dataset generation.
	Seed int64
}

// QuickScale is the CI-friendly configuration.
var QuickScale = Scale{
	Hours:     48,
	Instances: 6,
	GA:        estimate.GAOptions{Population: 12, Generations: 6, Seed: 3},
	Seed:      1,
}

// MediumScale uses the paper's GA budget (population 32, 24 generations —
// the regime where Global Search dominates calibration cost, which is what
// the MI optimization exploits) on one-week datasets and 10 instances.
// Fig. 6/7 shapes emerge clearly here within minutes.
var MediumScale = Scale{
	Hours:     168,
	Instances: 10,
	GA:        estimate.GAOptions{Population: 32, Generations: 24, Seed: 3},
	Seed:      1,
}

// PaperScale approximates §8.1 (Feb 1–28 hourly, 100 instances).
var PaperScale = Scale{
	Hours:     672,
	Instances: 100,
	GA:        estimate.GAOptions{Population: 32, Generations: 24, Seed: 3},
	Seed:      1,
}

func (s Scale) estOpts() estimate.Options {
	return estimate.Options{GA: s.GA}
}

// Table1 reproduces the workflow-operations/code-lines inventory.
// Expected shape: 88 Python lines vs 4 pgFMU statements (22x).
func Table1() *Table {
	t := &Table{
		ID:     "Table 1",
		Title:  "Workflow operations: packages and code lines",
		Header: []string{"Operation", "Package", "Python LoC", "pgFMU LoC"},
	}
	for _, s := range workflowSteps {
		pg := fmt.Sprintf("%d", s.PgFMULines)
		if s.PgFMULines == 0 {
			pg = "-"
		}
		t.Rows = append(t.Rows, []string{
			s.Operation,
			strings.Join(s.PythonPackages, ", "),
			fmt.Sprintf("%d", s.PythonLines),
			pg,
		})
	}
	python, pgfmu := TotalLines()
	t.Rows = append(t.Rows, []string{"Total", "", fmt.Sprintf("%d", python), fmt.Sprintf("%d", pgfmu)})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"code-line reduction: %.0fx (paper: 22x); distinct Python packages: %d",
		float64(python)/float64(pgfmu), DistinctPythonPackages()))
	return t
}

// Table2 reproduces the in-DBMS analytics feature matrix.
func Table2() *Table {
	yes, no := "yes", "no"
	return &Table{
		ID:     "Table 2",
		Title:  "In-DBMS analytics tools vs pgFMU",
		Header: []string{"Feature", "MADlib", "MS SQL ML Services", "pgFMU"},
		Rows: [][]string{
			{"Data query language", "SQL", "SQL", "SQL"},
			{"Model integration approach", "UDFs", "Stored procedures", "UDFs"},
			{"In-DBMS machine learning", yes, yes, no},
			{"In-DBMS physical models", no, no, yes},
			{"- FMU management", no, no, yes},
			{"- FMU simulation", no, no, yes},
			{"- FMU parameter estimation", no, no, yes},
		},
	}
}

// Table5 reproduces the FMU-model inventory.
func Table5() *Table {
	t := &Table{
		ID:     "Table 5",
		Title:  "FMU models under evaluation",
		Header: []string{"ModelID", "Dataset (substituted)", "Inputs", "Outputs", "Parameters"},
	}
	rows := []struct {
		id, inputs, outputs string
	}{
		{"hp0", "no inputs", "HP power y, indoor temperature x (state)"},
		{"hp1", "HP power rating u in [0..1]", "HP power y, indoor temperature x (state)"},
		{"classroom", "solrad, tout, occ, dpos, vpos", "indoor temperature t (state)"},
	}
	for _, r := range rows {
		pars, _ := dataset.EstimatedParameters(r.id)
		t.Rows = append(t.Rows, []string{
			r.id, "synthetic (see DESIGN.md)", r.inputs, r.outputs, strings.Join(pars, ", "),
		})
	}
	return t
}

// Table6 reproduces the dataset excerpts (first rows of each dataset).
func Table6(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "Table 6",
		Title:  "Dataset excerpts (synthetic NIST / classroom substitutes)",
		Header: []string{"model", "row", "time [h]", "columns"},
	}
	for _, model := range []string{"hp1", "classroom"} {
		frame, err := dataset.Generate(model, dataset.Config{Hours: scale.Hours, Seed: scale.Seed})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2 && i < frame.Len(); i++ {
			var cells []string
			for _, c := range frame.Columns {
				cells = append(cells, fmt.Sprintf("%s=%.4f", c, frame.Data[c][i]))
			}
			t.Rows = append(t.Rows, []string{
				model, fmt.Sprintf("%d", i+1), fmt.Sprintf("%.0f", frame.Times[i]),
				strings.Join(cells, " "),
			})
		}
	}
	return t, nil
}
