// Package stats renders the experiment tables the reproduction harness
// prints: labeled numeric rows with aligned plain-text output, plus the
// small aggregation helpers (mean, geometric mean, normalization) the
// paper's figures are built from.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid of labeled rows.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one labeled series.
type Row struct {
	Label  string
	Values []float64
}

// NewTable builds a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row.
func (t *Table) Add(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// AddAverage appends a row labeled AVG holding the arithmetic mean of each
// column over the existing rows.
func (t *Table) AddAverage() {
	if len(t.Rows) == 0 {
		return
	}
	width := 0
	for _, r := range t.Rows {
		if len(r.Values) > width {
			width = len(r.Values)
		}
	}
	avg := make([]float64, width)
	counts := make([]int, width)
	for _, r := range t.Rows {
		for i, v := range r.Values {
			avg[i] += v
			counts[i]++
		}
	}
	for i := range avg {
		if counts[i] > 0 {
			avg[i] /= float64(counts[i])
		}
	}
	t.Rows = append(t.Rows, Row{Label: "AVG", Values: avg})
}

// Fprint renders the table with the given number of decimals.
func (t *Table) Fprint(w io.Writer, decimals int) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title)))
	}
	labelW := 5
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Values))
		for ci, v := range r.Values {
			cells[ri][ci] = formatValue(v, decimals)
		}
	}
	for ci, c := range t.Columns {
		colW[ci] = len(c)
		for ri := range cells {
			if ci < len(cells[ri]) && len(cells[ri][ci]) > colW[ci] {
				colW[ci] = len(cells[ri][ci])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", labelW, "")
	for ci, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", colW[ci], c)
	}
	fmt.Fprintln(w)
	for ri, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labelW, r.Label)
		for ci := range t.Columns {
			cell := ""
			if ci < len(cells[ri]) {
				cell = cells[ri][ci]
			}
			fmt.Fprintf(w, "  %*s", colW[ci], cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64, decimals int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.*f", decimals, v)
}

// String renders the table with 3 decimals.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb, 3)
	return sb.String()
}

// WriteCSV emits the table as RFC-4180 CSV with a leading label column, for
// plotting outside the harness.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"label"}, t.Columns...)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		rec := make([]string, 1, len(t.Columns)+1)
		rec[0] = r.Label
		for i := range t.Columns {
			if i < len(r.Values) && !math.IsNaN(r.Values[i]) {
				rec = append(rec, strconv.FormatFloat(r.Values[i], 'g', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// GeoMean returns the geometric mean of positive values (0 if any value is
// non-positive or the input is empty).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
