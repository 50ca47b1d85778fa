package tables

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/selection"
)

// ExtRow is one (family, size) row of the extension table: the model-based
// pick versus the measured best across a collective family's algorithms.
type ExtRow struct {
	Family string
	M      int
	// Times maps spec name to its measured mean time.
	Times map[string]float64
	// Best is the fastest spec, Pick the model-selected one.
	Best, Pick string
	// Degradation is Pick's slowdown vs Best in percent.
	Degradation float64
}

// ExtTable carries the extension results for one platform — the paper's
// future-work claim ("the approach can be successful ... for MPI
// collective operations" generally) made concrete.
type ExtTable struct {
	Cluster string
	P       int
	Rows    []ExtRow
}

// GenerateExtTable calibrates every extended collective family on the
// platform and evaluates its model-based selection against exhaustive
// measurement over the given sizes. The calibration grid is the
// evaluation grid, so all families are measured once, as one sweep: the
// measured times are the fitted equations' right-hand sides.
func GenerateExtTable(pr cluster.Profile, P int, sizes []int, set experiment.Settings) (ExtTable, error) {
	if len(sizes) == 0 {
		sizes = []int{4096, 65536, 1 << 20}
	}
	gr, err := estimate.Gamma(pr, set)
	if err != nil {
		return ExtTable{}, err
	}
	names := []string{"allgather", "allreduce", "alltoall", "reduce", "gather", "scatter", "reduce_scatter"}
	all := estimate.AllSpecFamilies()
	var specs []estimate.CollectiveSpec
	for _, family := range names {
		specs = append(specs, all[family]...)
	}
	cfg := estimate.AlphaBetaConfig{Procs: P, Sizes: sizes, Settings: set}
	fits, err := estimate.AlphaBetaFamily(context.Background(), pr, specs, gr.Gamma, cfg)
	if err != nil {
		return ExtTable{}, fmt.Errorf("tables: ext: %w", err)
	}
	out := ExtTable{Cluster: pr.Name, P: P}
	for _, family := range names {
		specs, famFits := all[family], fits[:len(all[family])]
		fits = fits[len(specs):]
		sel := selection.NewExtendedSelector(pr, specs, gr.Gamma, famFits)
		for j, m := range sizes {
			row := ExtRow{Family: family, M: m, Times: make(map[string]float64, len(specs))}
			best := math.Inf(1)
			for i, spec := range specs {
				tm := famFits[i].Equations[j].T
				row.Times[spec.Name] = tm
				if tm < best {
					best = tm
					row.Best = spec.Name
				}
			}
			_, row.Pick = sel.Best(P, m)
			row.Degradation = selection.Degradation(row.Times[row.Pick], best)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Render formats the extension table.
func (t ExtTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — model-based selection beyond broadcast (%s, P=%d)\n", t.Cluster, t.P)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "collective\tm\tbest\tmodel pick\tdegradation")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.1f%%\n",
			r.Family, kb(r.M), trimFamily(r.Best), trimFamily(r.Pick), r.Degradation)
	}
	w.Flush()
	return b.String()
}

// CSV emits the extension table.
func (t ExtTable) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,P,collective,m_bytes,best,model_pick,degradation_pct\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%d,%s,%d,%s,%s,%.2f\n",
			t.Cluster, t.P, r.Family, r.M, trimFamily(r.Best), trimFamily(r.Pick), r.Degradation)
	}
	return b.String()
}

// MaxDegradation returns the worst model-pick slowdown in the table.
func (t ExtTable) MaxDegradation() float64 {
	worst := 0.0
	for _, r := range t.Rows {
		if r.Degradation > worst {
			worst = r.Degradation
		}
	}
	return worst
}

func trimFamily(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}
