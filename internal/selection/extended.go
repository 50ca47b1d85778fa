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
// collective family calibrated through estimate.Calibrate or
// estimate.AlphaBetaFamily —
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
// on a platform, reusing an already-estimated γ, in one
// estimate.AlphaBetaFamily sweep.
func CalibrateExtended(pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, cfg estimate.AlphaBetaConfig) (*ExtendedSelector, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("selection: no specs to calibrate")
	}
	fits, err := estimate.AlphaBetaFamily(context.Background(), pr, specs, g, cfg)
	if err != nil {
		return nil, err
	}
	return NewExtendedSelector(pr, specs, g, fits), nil
}

// NewExtendedSelector builds the selector of specs on pr from their fits
// under γ, indexed like specs.
func NewExtendedSelector(pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, fits []estimate.AlphaBetaResult) *ExtendedSelector {
	sel := &ExtendedSelector{
		Cluster: pr.Name,
		SegSize: pr.SegmentSize,
		Gamma:   g,
		Specs:   specs,
		Params:  make([]model.Hockney, len(specs)),
	}
	for i, r := range fits {
		sel.Params[i] = r.Params
	}
	return sel
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
