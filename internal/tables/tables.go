// Package tables regenerates every table and figure of the paper's
// evaluation (§5) from the simulated platforms:
//
//	Fig. 1  — traditional analytical models vs measured curves (binary and
//	          binomial broadcast), showing why the textbook approach fails.
//	Table 1 — estimated γ(P) for P = 3..7 on both clusters.
//	Table 2 — per-algorithm fitted α and β on both clusters.
//	Fig. 5  — execution time vs message size of the algorithm chosen by
//	          the Open MPI decision function, the model-based selector and
//	          the empirical best, for three process counts per cluster.
//	Table 3 — the same data tabulated for one process count per cluster,
//	          with per-selection performance degradation percentages.
//
// Each Generate* function returns a structured result with Render (aligned
// text) and CSV methods, so the cmd tools can emit either.
package tables

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/hockney"
	"mpicollperf/internal/model"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/stats"
)

// PaperSizes returns the paper's message grid: 10 sizes from 8 KB to 4 MB
// separated by a constant logarithmic step.
func PaperSizes() []int { return stats.LogSpaceBytes(8192, 4<<20, 10) }

// kb formats a byte count the way the paper's tables do.
func kb(m int) string {
	if m >= 1<<20 && m%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", m/(1<<20))
	}
	return fmt.Sprintf("%dKB", (m+512)/1024)
}

// ---------------------------------------------------------------- Fig. 1

// Fig1Row is one message size of the Fig. 1 comparison.
type Fig1Row struct {
	M int
	// TradBinary and TradBinomial are the textbook-model predictions with
	// ping-pong Hockney parameters.
	TradBinary, TradBinomial float64
	// MeasBinary and MeasBinomial are the measured execution times.
	MeasBinary, MeasBinomial float64
}

// Fig1 is the reproduction of the paper's Fig. 1 for one platform.
type Fig1 struct {
	Cluster  string
	P        int
	PingPong hockney.Params
	Rows     []Fig1Row
}

// GenerateFig1 builds Fig. 1: traditional-model estimation (a) vs
// experimental curves (b) for the binary and binomial tree broadcasts.
func GenerateFig1(pr cluster.Profile, P int, sizes []int, set experiment.Settings) (Fig1, error) {
	if len(sizes) == 0 {
		sizes = PaperSizes()
	}
	pp, err := hockney.EstimatePingPong(pr, []int{0, 8192, 65536, 524288, 2 << 20}, set)
	if err != nil {
		return Fig1{}, err
	}
	algs := []coll.BcastAlgorithm{coll.BcastBinary, coll.BcastBinomial}
	grid := experiment.BcastGrid(P, algs, sizes, pr.SegmentSize)
	measured, err := experiment.Sweep{Profile: pr, Settings: set}.Run(context.Background(), grid)
	if err != nil {
		return Fig1{}, err
	}
	fig := Fig1{Cluster: pr.Name, P: P, PingPong: pp}
	for i, m := range sizes {
		fig.Rows = append(fig.Rows, Fig1Row{
			M:            m,
			TradBinary:   hockney.TraditionalBcast(coll.BcastBinary, pp, P, m, pr.SegmentSize),
			TradBinomial: hockney.TraditionalBcast(coll.BcastBinomial, pp, P, m, pr.SegmentSize),
			// BcastGrid is sizes-major: binary then binomial per size.
			MeasBinary:   measured[2*i].Meas.Mean,
			MeasBinomial: measured[2*i+1].Meas.Mean,
		})
	}
	return fig, nil
}

// Render formats the figure as an aligned text table.
func (f Fig1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — traditional models vs experiment (%s, P=%d)\n", f.Cluster, f.P)
	fmt.Fprintf(&b, "ping-pong Hockney parameters: alpha=%.3e s, beta=%.3e s/B\n", f.PingPong.Alpha, f.PingPong.Beta)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "m\ttrad binary\ttrad binomial\tmeas binary\tmeas binomial\ttrad/meas binary\ttrad/meas binomial")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%s\t%.6f\t%.6f\t%.6f\t%.6f\t%.2fx\t%.2fx\n",
			kb(r.M), r.TradBinary, r.TradBinomial, r.MeasBinary, r.MeasBinomial,
			r.TradBinary/r.MeasBinary, r.TradBinomial/r.MeasBinomial)
	}
	w.Flush()
	return b.String()
}

// CSV emits the figure's series.
func (f Fig1) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,P,m_bytes,trad_binary_s,trad_binomial_s,meas_binary_s,meas_binomial_s\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%g,%g,%g,%g\n",
			f.Cluster, f.P, r.M, r.TradBinary, r.TradBinomial, r.MeasBinary, r.MeasBinomial)
	}
	return b.String()
}

// --------------------------------------------------------------- Table 1

// Table1 is the reproduction of the paper's Table 1: γ(P) per cluster.
type Table1 struct {
	// Clusters in presentation order.
	Clusters []string
	// Gamma[cluster][P] for P in 3..MaxLinearFanout.
	Gamma map[string]map[int]float64
	// MaxP is the largest P column.
	MaxP int
}

// GenerateTable1 estimates γ on every profile.
func GenerateTable1(profiles []cluster.Profile, set experiment.Settings) (Table1, error) {
	t := Table1{Gamma: make(map[string]map[int]float64)}
	for _, pr := range profiles {
		res, err := estimate.Gamma(pr, set)
		if err != nil {
			return Table1{}, fmt.Errorf("tables: γ on %s: %w", pr.Name, err)
		}
		row := make(map[int]float64)
		for p := 3; p <= pr.MaxLinearFanout; p++ {
			row[p] = res.Gamma.At(p)
			if p > t.MaxP {
				t.MaxP = p
			}
		}
		t.Gamma[pr.Name] = row
		t.Clusters = append(t.Clusters, pr.Name)
	}
	return t, nil
}

// Render formats Table 1.
func (t Table1) Render() string {
	var b strings.Builder
	b.WriteString("Table 1 — estimated γ(P)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "P")
	for _, c := range t.Clusters {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for p := 3; p <= t.MaxP; p++ {
		fmt.Fprintf(w, "%d", p)
		for _, c := range t.Clusters {
			fmt.Fprintf(w, "\t%.3f", t.Gamma[c][p])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// CSV emits the table.
func (t Table1) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,P,gamma\n")
	for _, c := range t.Clusters {
		ps := make([]int, 0, len(t.Gamma[c]))
		for p := range t.Gamma[c] {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		for _, p := range ps {
			fmt.Fprintf(&b, "%s,%d,%g\n", c, p, t.Gamma[c][p])
		}
	}
	return b.String()
}

// --------------------------------------------------------------- Table 2

// Table2Row is one (cluster, algorithm) parameter pair.
type Table2Row struct {
	Cluster   string
	Algorithm coll.BcastAlgorithm
	Alpha     float64
	Beta      float64
}

// Table2 is the reproduction of the paper's Table 2: per-algorithm fitted
// α and β on each cluster.
type Table2 struct {
	Rows []Table2Row
	// Models carries the full fitted model sets keyed by cluster, so that
	// downstream artifacts (Fig. 5, Table 3) can reuse them without
	// re-estimating.
	Models map[string]model.BcastModels
}

// GenerateTable2 runs the full §4.2 estimation for every algorithm on
// every profile. procs maps cluster name to the process count used for
// the estimation experiments (the paper: 40 on Grisou, 124 on Gros); zero
// or missing means the estimate package default.
func GenerateTable2(profiles []cluster.Profile, procs map[string]int, set experiment.Settings) (Table2, error) {
	t := Table2{Models: make(map[string]model.BcastModels)}
	for _, pr := range profiles {
		cfg := estimate.AlphaBetaConfig{Procs: procs[pr.Name], Settings: set}
		bm, _, err := estimate.Models(pr, cfg)
		if err != nil {
			return Table2{}, fmt.Errorf("tables: α/β on %s: %w", pr.Name, err)
		}
		t.Models[pr.Name] = bm
		for _, alg := range coll.BcastAlgorithms() {
			par := bm.Params[alg]
			t.Rows = append(t.Rows, Table2Row{
				Cluster: pr.Name, Algorithm: alg, Alpha: par.Alpha, Beta: par.Beta,
			})
		}
	}
	return t, nil
}

// Render formats Table 2.
func (t Table2) Render() string {
	var b strings.Builder
	b.WriteString("Table 2 — estimated per-algorithm α and β\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "cluster\talgorithm\talpha (s)\tbeta (s/B)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s\t%v\t%.3e\t%.3e\n", r.Cluster, r.Algorithm, r.Alpha, r.Beta)
	}
	w.Flush()
	return b.String()
}

// CSV emits the table.
func (t Table2) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,algorithm,alpha_s,beta_s_per_byte\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%v,%g,%g\n", r.Cluster, r.Algorithm, r.Alpha, r.Beta)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Point is one x-position of a Fig. 5 panel.
type Fig5Point struct {
	M         int
	OMPITime  float64
	ModelTime float64
	BestTime  float64
	OMPIPick  selection.Choice
	ModelPick selection.Choice
	BestPick  coll.BcastAlgorithm
}

// Fig5Panel is one subfigure: a (cluster, P) pair swept over message sizes.
type Fig5Panel struct {
	Cluster string
	P       int
	Points  []Fig5Point
}

// GenerateFig5Panel measures the three selector curves for one (cluster,
// P) pair.
func GenerateFig5Panel(pr cluster.Profile, sel selection.ModelBased, P int, sizes []int, set experiment.Settings) (Fig5Panel, error) {
	if len(sizes) == 0 {
		sizes = PaperSizes()
	}
	panel := Fig5Panel{Cluster: pr.Name, P: P}
	for _, m := range sizes {
		cmp, err := selection.Compare(pr, sel, P, m, set)
		if err != nil {
			return Fig5Panel{}, fmt.Errorf("tables: fig5 %s P=%d m=%d: %w", pr.Name, P, m, err)
		}
		panel.Points = append(panel.Points, Fig5Point{
			M:         m,
			OMPITime:  cmp.OMPITime,
			ModelTime: cmp.ModelTime,
			BestTime:  cmp.Oracle.BestTime(),
			OMPIPick:  cmp.OMPIChoice,
			ModelPick: cmp.ModelChoice,
			BestPick:  cmp.Oracle.Best,
		})
	}
	return panel, nil
}

// Render formats the panel.
func (p Fig5Panel) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — selector comparison (%s, P=%d)\n", p.Cluster, p.P)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "m\topen mpi (s)\tmodel-based (s)\tbest (s)\tompi pick\tmodel pick\tbest pick")
	for _, pt := range p.Points {
		fmt.Fprintf(w, "%s\t%.6f\t%.6f\t%.6f\t%v\t%v\t%v\n",
			kb(pt.M), pt.OMPITime, pt.ModelTime, pt.BestTime, pt.OMPIPick, pt.ModelPick, pt.BestPick)
	}
	w.Flush()
	return b.String()
}

// CSV emits the panel's series.
func (p Fig5Panel) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,P,m_bytes,ompi_s,model_s,best_s,ompi_pick,model_pick,best_pick\n")
	for _, pt := range p.Points {
		fmt.Fprintf(&b, "%s,%d,%d,%g,%g,%g,%v,%v,%v\n",
			p.Cluster, p.P, pt.M, pt.OMPITime, pt.ModelTime, pt.BestTime,
			pt.OMPIPick, pt.ModelPick, pt.BestPick)
	}
	return b.String()
}

// --------------------------------------------------------------- Table 3

// Table3 is the reproduction of the paper's Table 3 for one (cluster, P).
type Table3 struct {
	Cluster string
	P       int
	Rows    []selection.Comparison
}

// GenerateTable3 builds the selection-accuracy table.
func GenerateTable3(pr cluster.Profile, sel selection.ModelBased, P int, sizes []int, set experiment.Settings) (Table3, error) {
	if len(sizes) == 0 {
		sizes = PaperSizes()
	}
	t := Table3{Cluster: pr.Name, P: P}
	for _, m := range sizes {
		cmp, err := selection.Compare(pr, sel, P, m, set)
		if err != nil {
			return Table3{}, fmt.Errorf("tables: table3 %s P=%d m=%d: %w", pr.Name, P, m, err)
		}
		t.Rows = append(t.Rows, cmp)
	}
	return t, nil
}

// Render formats Table 3 in the paper's layout.
func (t Table3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — P=%d, MPI_Bcast, %s\n", t.P, t.Cluster)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "m\tbest\tmodel-based (%)\topen mpi (%)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s\t%v\t%v (%.0f)\t%v (%.0f)\n",
			kb(r.M), r.Oracle.Best,
			r.ModelChoice.Alg, r.ModelDegradation,
			r.OMPIChoice.Alg, r.OMPIDegradation)
	}
	w.Flush()
	return b.String()
}

// CSV emits the table.
func (t Table3) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,P,m_bytes,best,model_pick,model_degradation_pct,ompi_pick,ompi_degradation_pct\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%v,%v,%.2f,%v,%.2f\n",
			t.Cluster, t.P, r.M, r.Oracle.Best,
			r.ModelChoice.Alg, r.ModelDegradation,
			r.OMPIChoice.Alg, r.OMPIDegradation)
	}
	return b.String()
}

// MaxModelDegradation returns the worst model-based degradation in the
// table — the paper's headline accuracy number (≤ 3% on Grisou, ≤ 10% on
// Gros).
func (t Table3) MaxModelDegradation() float64 {
	worst := 0.0
	for _, r := range t.Rows {
		if r.ModelDegradation > worst {
			worst = r.ModelDegradation
		}
	}
	return worst
}
