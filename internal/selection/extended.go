package selection

import (
	"context"
	"fmt"
	"math"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/model"
)

// ExtendedSelector applies the paper's model-based selection to any
// collective family calibrated through estimate.AlphaBetaFamily —
// allgather, allreduce, alltoall, ... — realising the paper's future-work
// claim that the approach generalises beyond broadcast.
type ExtendedSelector struct {
	// Cluster names the platform.
	Cluster string
	// SegSize is the platform segment size forwarded to the models.
	SegSize int
	// Gamma is the platform's γ(P).
	Gamma model.Gamma
	// Specs are the calibrated algorithms of one collective family.
	Specs []estimate.CollectiveSpec
	// Params holds fitted per-algorithm parameters, indexed like Specs.
	Params []model.Hockney
}

// CalibrateExtended fits per-algorithm parameters for a collective family
// on a platform, reusing an already-estimated γ.
func CalibrateExtended(pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, cfg estimate.AlphaBetaConfig) (*ExtendedSelector, error) {
	sel, _, err := CalibrateExtendedCtx(context.Background(), pr, specs, g, cfg)
	return sel, err
}

// CalibrateExtendedCtx is CalibrateExtended with cancellation (the family
// is measured as one estimate.AlphaBetaFamily sweep), additionally
// returning every spec's fitted system, indexed like specs.
func CalibrateExtendedCtx(ctx context.Context, pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, cfg estimate.AlphaBetaConfig) (*ExtendedSelector, []estimate.AlphaBetaResult, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("selection: no specs to calibrate")
	}
	res, err := estimate.AlphaBetaFamily(ctx, pr, specs, g, cfg)
	if err != nil {
		return nil, nil, err
	}
	sel := &ExtendedSelector{
		Cluster: pr.Name,
		SegSize: pr.SegmentSize,
		Gamma:   g,
		Specs:   specs,
		Params:  make([]model.Hockney, len(specs)),
	}
	for i, r := range res {
		sel.Params[i] = r.Params
	}
	return sel, res, nil
}

// Predict returns the modelled time of spec i for (P, m).
func (s *ExtendedSelector) Predict(i, P, m int) float64 {
	a, b := s.Specs[i].Coefficients(P, m, s.SegSize, s.Gamma)
	return a*s.Params[i].Alpha + b*s.Params[i].Beta
}

// Best returns the index and name of the algorithm with the smallest
// predicted time for (P, m).
func (s *ExtendedSelector) Best(P, m int) (int, string) {
	best, bestT := 0, math.Inf(1)
	for i := range s.Specs {
		if t := s.Predict(i, P, m); t < bestT {
			best, bestT = i, t
		}
	}
	return best, s.Specs[best].Name
}
