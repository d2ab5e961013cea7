package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// RenderMarkdown writes the result grid as two GitHub-flavoured markdown
// tables — assignment score and running time — mirroring the paper's (a)/(b)
// subfigure pairs.
func (t *Table) RenderMarkdown(w io.Writer) error {
	e := t.Experiment
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", e.Paper, e.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "Axis: %s. Paper scale: %s. Run at scale %.2f, seed %d, repeats %d.\n\n",
		e.Axis, e.FullScale, t.Options.Scale, t.Options.Seed, max(1, t.Options.Repeats))

	labels := make([]string, len(e.Algorithms))
	for i, a := range e.Algorithms {
		labels[i] = a.Label
	}

	write := func(title string, cell func(Cell) string) {
		fmt.Fprintf(w, "### %s\n\n", title)
		fmt.Fprintf(w, "| %s | %s |\n", e.Axis, strings.Join(labels, " | "))
		fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(labels)+1))
		for i, row := range t.Rows {
			cells := make([]string, len(labels))
			for j, lab := range labels {
				cells[j] = cell(row[lab])
			}
			fmt.Fprintf(w, "| %s | %s |\n", e.Points[i].Label, strings.Join(cells, " | "))
		}
		fmt.Fprintln(w)
	}
	write("Assignment score (valid worker-and-task pairs)",
		func(c Cell) string { return fmt.Sprintf("%.1f", c.Score) })
	write("Running time (ms)",
		func(c Cell) string { return fmt.Sprintf("%.2f", c.TimeMS) })
	return nil
}

// RenderCSV writes the grid as long-form CSV:
// experiment,point,algorithm,score,time_ms.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,point,algorithm,score,time_ms"); err != nil {
		return err
	}
	for i, row := range t.Rows {
		for _, a := range t.Experiment.Algorithms {
			c := row[a.Label]
			if _, err := fmt.Fprintf(w, "%s,%q,%q,%.3f,%.4f\n",
				t.Experiment.ID, t.Experiment.Points[i].Label, a.Label, c.Score, c.TimeMS); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderJSON writes the grid as a single JSON document for programmatic
// consumers.
func (t *Table) RenderJSON(w io.Writer) error {
	type cellDTO struct {
		Point     string  `json:"point"`
		Algorithm string  `json:"algorithm"`
		Score     float64 `json:"score"`
		TimeMS    float64 `json:"time_ms"`
	}
	doc := struct {
		Experiment string    `json:"experiment"`
		Paper      string    `json:"paper"`
		Title      string    `json:"title"`
		Axis       string    `json:"axis"`
		Scale      float64   `json:"scale"`
		Seed       int64     `json:"seed"`
		Repeats    int       `json:"repeats"`
		Cells      []cellDTO `json:"cells"`
	}{
		Experiment: t.Experiment.ID,
		Paper:      t.Experiment.Paper,
		Title:      t.Experiment.Title,
		Axis:       t.Experiment.Axis,
		Scale:      t.Options.Scale,
		Seed:       t.Options.Seed,
		Repeats:    max(1, t.Options.Repeats),
	}
	for i, row := range t.Rows {
		for _, a := range t.Experiment.Algorithms {
			c := row[a.Label]
			doc.Cells = append(doc.Cells, cellDTO{
				Point: t.Experiment.Points[i].Label, Algorithm: a.Label,
				Score: c.Score, TimeMS: c.TimeMS,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Column extracts one algorithm's score series across the sweep.
func (t *Table) Column(label string) []float64 {
	out := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = row[label].Score
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
