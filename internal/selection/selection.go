package selection

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
)

// Choice is a selected algorithm together with the segment size it should
// run with (0 = unsegmented).
type Choice struct {
	Alg     coll.BcastAlgorithm
	SegSize int
}

func (c Choice) String() string {
	if c.SegSize > 0 {
		return fmt.Sprintf("%v/%dKB", c.Alg, c.SegSize/1024)
	}
	return c.Alg.String()
}

// ModelBased selects broadcast algorithms by evaluating analytical models.
type ModelBased struct {
	Models model.BcastModels
}

// Select returns the algorithm with the smallest predicted time for a
// broadcast of m bytes over P processes, at the platform's segment size.
func (s ModelBased) Select(P, m int) (Choice, error) {
	best := Choice{SegSize: s.Models.SegSize}
	bestT := math.Inf(1)
	found := false
	for _, alg := range coll.BcastAlgorithms() {
		t, err := s.Models.Predict(alg, P, m)
		if err != nil {
			continue
		}
		if t < bestT {
			bestT = t
			best.Alg = alg
			found = true
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("selection: no models available for %s", s.Models.Cluster)
	}
	return best, nil
}

// PredictAll returns every algorithm's predicted time (algorithms without
// fitted parameters are omitted).
func (s ModelBased) PredictAll(P, m int) map[coll.BcastAlgorithm]float64 {
	out := make(map[coll.BcastAlgorithm]float64, len(s.Models.Params))
	for _, alg := range coll.BcastAlgorithms() {
		if t, err := s.Models.Predict(alg, P, m); err == nil {
			out[alg] = t
		}
	}
	return out
}

// Open MPI 3.1 fixed-decision constants for MPI_Bcast
// (ompi/mca/coll/tuned/coll_tuned_decision_fixed.c). The a/b pairs define
// communicator-size thresholds that are linear in the message size and
// govern the pipeline segment-size choice.
const (
	ompiSmallMessageSize        = 2048
	ompiIntermediateMessageSize = 370728
	ompiAP128                   = 1.6761e-6
	ompiBP128                   = -1.0513
	ompiAP64                    = 2.3679e-6
	ompiBP64                    = 1.1787
	ompiAP16                    = 3.2118e-6
	ompiBP16                    = 8.7936
)

// OpenMPIFixed is Open MPI 3.1's broadcast decision function: binomial
// (unsegmented) for small messages, split-binary with 1 KB segments for
// intermediate ones, and the pipeline ("chain" in the paper's tables) with
// a size-dependent segment size for large ones.
func OpenMPIFixed(P, m int) Choice {
	msg := float64(m)
	switch {
	case m < ompiSmallMessageSize:
		return Choice{Alg: coll.BcastBinomial, SegSize: 0}
	case m < ompiIntermediateMessageSize:
		return Choice{Alg: coll.BcastSplitBinary, SegSize: 1024}
	case float64(P) < ompiAP128*msg+ompiBP128:
		return Choice{Alg: coll.BcastChain, SegSize: 1024 << 7}
	case P < 13:
		return Choice{Alg: coll.BcastSplitBinary, SegSize: 1024 << 3}
	case float64(P) < ompiAP64*msg+ompiBP64:
		return Choice{Alg: coll.BcastChain, SegSize: 1024 << 6}
	case float64(P) < ompiAP16*msg+ompiBP16:
		return Choice{Alg: coll.BcastChain, SegSize: 1024 << 4}
	default:
		return Choice{Alg: coll.BcastChain, SegSize: 1024 << 3}
	}
}

// OracleResult holds the measured time of every algorithm for one (P, m).
type OracleResult struct {
	// Times maps each algorithm (at the platform segment size) to its
	// measured mean execution time.
	Times map[coll.BcastAlgorithm]float64
	// Best is the fastest algorithm.
	Best coll.BcastAlgorithm
}

// BestTime returns the oracle's winning time.
func (o OracleResult) BestTime() float64 { return o.Times[o.Best] }

// Ranked returns the algorithms sorted fastest-first.
func (o OracleResult) Ranked() []coll.BcastAlgorithm {
	algs := make([]coll.BcastAlgorithm, 0, len(o.Times))
	for a := range o.Times {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool {
		ti, tj := o.Times[algs[i]], o.Times[algs[j]]
		if ti == tj {
			return algs[i] < algs[j]
		}
		return ti < tj
	})
	return algs
}

// Oracle measures every broadcast algorithm at the platform's segment size
// and returns the empirical ranking. The per-algorithm measurements are
// independent and fan out over a default-width experiment.Sweep; results
// are identical to measuring serially.
func Oracle(pr cluster.Profile, P, m int, set experiment.Settings) (OracleResult, error) {
	return OracleSweep(context.Background(), experiment.Sweep{Profile: pr, Settings: set}, P, m)
}

// OracleSweep is Oracle running on a caller-supplied sweep engine, letting
// callers bound the worker pool, reuse a measurement cache across (P, m)
// points, and cancel mid-flight. sw.Profile names the platform.
func OracleSweep(ctx context.Context, sw experiment.Sweep, P, m int) (OracleResult, error) {
	algs := coll.BcastAlgorithms()
	points := experiment.BcastGrid(P, algs, []int{m}, sw.Profile.SegmentSize)
	measured, err := sw.Run(ctx, points)
	if err != nil {
		return OracleResult{}, fmt.Errorf("selection: oracle at (P=%d, m=%d): %w", P, m, err)
	}
	res := OracleResult{Times: make(map[coll.BcastAlgorithm]float64, len(algs))}
	bestT := math.Inf(1)
	for i, alg := range algs {
		t := measured[i].Meas.Mean
		res.Times[alg] = t
		if t < bestT {
			bestT = t
			res.Best = alg
		}
	}
	return res, nil
}

// Degradation returns the percentage by which t exceeds best (the paper's
// braces in Table 3).
func Degradation(t, best float64) float64 {
	if best <= 0 {
		return 0
	}
	return (t/best - 1) * 100
}

// Comparison is one row of the paper's Table 3 / one x-position of Fig. 5:
// the three selectors' choices and measured performance for a given (P, m).
type Comparison struct {
	P, M int
	// Oracle ranking at the platform segment size.
	Oracle OracleResult
	// ModelChoice and its measured time and degradation vs the oracle.
	ModelChoice      Choice
	ModelTime        float64
	ModelDegradation float64
	// OMPIChoice (with Open MPI's own segment size) and its measured time
	// and degradation.
	OMPIChoice      Choice
	OMPITime        float64
	OMPIDegradation float64
}

// Compare evaluates the three selectors for one (P, m) on a platform. The
// model-based and oracle selections run at the platform's segment size;
// the Open MPI selection runs with the segment size its decision function
// dictates, exactly as the paper evaluates it.
func Compare(pr cluster.Profile, sel ModelBased, P, m int, set experiment.Settings) (Comparison, error) {
	cmp := Comparison{P: P, M: m}
	oracle, err := Oracle(pr, P, m, set)
	if err != nil {
		return Comparison{}, err
	}
	cmp.Oracle = oracle

	mc, err := sel.Select(P, m)
	if err != nil {
		return Comparison{}, err
	}
	cmp.ModelChoice = mc
	// The model-based choice at the platform segment size was already
	// measured by the oracle pass.
	cmp.ModelTime = oracle.Times[mc.Alg]
	cmp.ModelDegradation = Degradation(cmp.ModelTime, oracle.BestTime())

	oc := OpenMPIFixed(P, m)
	cmp.OMPIChoice = oc
	ompi, err := experiment.Sweep{Profile: pr, Settings: set}.Run(context.Background(), []experiment.Point{
		{Stage: experiment.BcastStage(oc.Alg), Procs: P, MsgBytes: m, SegSize: oc.SegSize},
	})
	if err != nil {
		return Comparison{}, err
	}
	cmp.OMPITime = ompi[0].Meas.Mean
	// Open MPI's pick can even beat the fixed-segment oracle when its
	// segment size is better; degradation is still reported against the
	// oracle, like the paper.
	cmp.OMPIDegradation = Degradation(cmp.OMPITime, oracle.BestTime())
	return cmp, nil
}
