package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is one result of an experiment, printed as aligned text or as CSV.
// Each row holds one cell per column: a string, an int, a float64 or a
// Stat.
type Table struct {
	// Name is the table's CSV file name without ".csv", e.g. "fig7a".
	Name  string
	Title string
	Cols  []Column
	Rows  [][]any
}

// Column is one column of a Table: its text header, its CSV name and the
// decimals its numbers print with in text. A Stat column is two CSV
// columns, <CSV>_mean and <CSV>_std.
type Column struct {
	Head, CSV string
	Prec      int
}

// WriteText writes the title, the aligned header and rows, and a blank
// line.
func (t Table) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, t.Title)
	line := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		line[i] = c.Head
	}
	fmt.Fprintln(tw, strings.Join(line, "\t"))
	for _, row := range t.Rows {
		for i, v := range row {
			line[i] = strings.Join(fields(v, t.Cols[i].Prec), " ± ")
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// WriteCSV writes a header of the columns' CSV names and then the rows,
// every number in full.
func (t Table) WriteCSV(w io.Writer) error {
	var head []string
	for i, c := range t.Cols {
		if len(t.Rows) > 0 && isStat(t.Rows[0][i]) {
			head = append(head, c.CSV+"_mean", c.CSV+"_std")
		} else {
			head = append(head, c.CSV)
		}
	}
	cw := csv.NewWriter(w)
	cw.Write(head)
	for _, row := range t.Rows {
		var rec []string
		for _, v := range row {
			rec = append(rec, fields(v, -1)...)
		}
		cw.Write(rec)
	}
	cw.Flush()
	return cw.Error()
}

func isStat(v any) bool {
	_, ok := v.(Stat)
	return ok
}

// fields renders a cell's numbers with prec decimals, or in full when prec
// is negative: a Stat as its mean and standard deviation, anything else as
// one field.
func fields(v any, prec int) []string {
	num := func(x float64) string { return strconv.FormatFloat(x, 'f', prec, 64) }
	switch v := v.(type) {
	case string:
		return []string{v}
	case int:
		return []string{strconv.Itoa(v)}
	case float64:
		return []string{num(v)}
	case Stat:
		return []string{num(v.Mean), num(v.Std)}
	}
	panic(fmt.Sprintf("experiments: table cell of type %T", v))
}
