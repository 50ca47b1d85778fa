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
// on a platform, reusing an already-estimated γ. It is
// CalibrateExtendedFamilies for one family.
func CalibrateExtended(pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, cfg estimate.AlphaBetaConfig) (*ExtendedSelector, error) {
	sels, _, err := CalibrateExtendedFamilies(context.Background(), pr, [][]estimate.CollectiveSpec{specs}, g, cfg)
	if err != nil {
		return nil, err
	}
	return sels[0], nil
}

// CalibrateExtendedFamilies fits several collective families in one
// estimate.AlphaBetaFamily sweep over all their specs, so their grid
// points share one pool of workers. It returns one selector per family,
// indexed like fams, and every spec's fitted system, family after family
// in fams order. Every point of a sweep is measured on its own, so each
// family's parameters are bit-identical to a sweep of it alone. A
// cancelled ctx stops the sweep within one chunk of grid points.
func CalibrateExtendedFamilies(ctx context.Context, pr cluster.Profile, fams [][]estimate.CollectiveSpec, g model.Gamma, cfg estimate.AlphaBetaConfig) ([]*ExtendedSelector, []estimate.AlphaBetaResult, error) {
	var specs []estimate.CollectiveSpec
	for _, f := range fams {
		specs = append(specs, f...)
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("selection: no specs to calibrate")
	}
	res, err := estimate.AlphaBetaFamily(ctx, pr, specs, g, cfg)
	if err != nil {
		return nil, nil, err
	}
	sels := make([]*ExtendedSelector, len(fams))
	rest := res
	for i, f := range fams {
		sels[i] = newExtendedSelector(pr, f, g, rest[:len(f)])
		rest = rest[len(f):]
	}
	return sels, res, nil
}

// newExtendedSelector builds the selector of specs from their fits,
// indexed like specs.
func newExtendedSelector(pr cluster.Profile, specs []estimate.CollectiveSpec, g model.Gamma, res []estimate.AlphaBetaResult) *ExtendedSelector {
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
