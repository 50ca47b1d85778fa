// Package hockney implements the *traditional* performance-modelling
// pipeline that the paper improves upon (§2 and Fig. 1): Hockney model
// parameters α (latency) and β (reciprocal bandwidth) estimated from
// point-to-point ping-pong experiments, and textbook analytical models of
// the broadcast algorithms built from high-level mathematical definitions
// rather than from the implementation.
//
// The package exists for two reproduction artifacts:
//
//   - Fig. 1, which contrasts predictions of these traditional models with
//     measured broadcast curves and shows they are not accurate enough for
//     algorithm selection;
//   - the ablation benchmarks, which rerun the paper's selection procedure
//     with traditional parameters/models in place of the
//     implementation-derived ones to quantify each innovation.
package hockney

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/stats"
)

// Params are Hockney point-to-point parameters: T_p2p(m) = Alpha + Beta·m.
type Params struct {
	Alpha float64 // latency, seconds
	Beta  float64 // reciprocal bandwidth, seconds per byte
}

// P2P returns the modelled point-to-point time for an m-byte message.
func (p Params) P2P(m int) float64 { return p.Alpha + p.Beta*float64(m) }

// pingPong is the round trip of an m-byte message between ranks 0 and 1,
// timed on rank 0. It carries no payload and reads no clock, so its
// points compile goroutine-free.
var pingPong = &experiment.Stage{
	Name:              "pingpong",
	Mode:              experiment.RootTime,
	TimingIndependent: true,
	Run: func(p *mpi.Proc, m, _ int) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, m)
			p.Recv(1, 1, nil)
		} else {
			p.Recv(0, 0, nil)
			p.Send(0, 1, nil, m)
		}
	},
}

// EstimatePingPong measures Params the traditional way: round-trip
// ping-pong experiments between two processes over the given message
// sizes, halving each round trip and fitting α + β·m by least squares.
func EstimatePingPong(pr cluster.Profile, sizes []int, set experiment.Settings) (Params, error) {
	if len(sizes) < 2 {
		return Params{}, fmt.Errorf("hockney: need at least 2 message sizes, got %d", len(sizes))
	}
	points := make([]experiment.Point, len(sizes))
	for i, m := range sizes {
		if m < 0 {
			return Params{}, fmt.Errorf("hockney: negative message size %d", m)
		}
		points[i] = experiment.Point{Stage: pingPong, Procs: 2, MsgBytes: m}
	}
	measured, err := experiment.Sweep{Profile: pr, Settings: set}.Run(context.Background(), points)
	if err != nil {
		return Params{}, err
	}
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(sizes))
	for i, m := range sizes {
		xs[i] = float64(m)
		ys[i] = measured[i].Meas.Mean / 2
	}
	fit, err := stats.OLS(xs, ys)
	if err != nil {
		return Params{}, err
	}
	return Params{Alpha: fit.Intercept, Beta: fit.Slope}, nil
}

// TraditionalBcast predicts the execution time of a broadcast algorithm
// from its high-level mathematical definition and point-to-point Hockney
// parameters — the state of the art the paper's §2.1 reviews. m is the
// total message size; segSize is the segment size for segmented
// algorithms (ignored by linear).
//
// The formulas are the standard ones (Thakur et al., Pjesivac-Grbovic et
// al.): every communication step costs α + m_s·β, steps on independent
// pairs are free, and no account is taken of non-blocking send
// serialisation (γ), which is precisely what makes them inaccurate.
func TraditionalBcast(alg coll.BcastAlgorithm, par Params, P, m, segSize int) float64 {
	if P <= 1 || m < 0 {
		return 0
	}
	ns := float64(coll.NumSegments(m, segSize))
	ms := float64(m) / ns
	ts := par.Alpha + par.Beta*ms
	switch alg {
	case coll.BcastLinear:
		// P-1 independent sends from the root, assumed concurrent.
		return par.P2P(m)
	case coll.BcastChain:
		// Pipelined chain: P-1 hops for the first segment, one step each
		// for the rest.
		return (float64(P-2) + ns) * ts
	case coll.BcastKChain:
		// K chains of length ceil((P-1)/K); the root feeds K heads each
		// step (assumed concurrent in the textbook model).
		k := coll.DefaultKChainFanout
		l := float64((P - 2 + k) / k)
		return (l - 1 + ns) * ts
	case coll.BcastBinary:
		// Balanced binary tree of height floor(log2 P); each step costs
		// two child sends in the textbook serial-send variant.
		h := float64(bits.Len(uint(P)) - 1)
		return (ns + h - 1) * 2 * ts
	case coll.BcastSplitBinary:
		// Halves pipelined down the two subtrees, then a pairwise
		// exchange of m/2.
		h := float64(bits.Len(uint(P)) - 1)
		return (math.Ceil(ns/2)+h-1)*2*ts + par.P2P(m/2)
	case coll.BcastBinomial:
		// ceil(log2 P) steps, each a (segmented) point-to-point.
		steps := float64(bits.Len(uint(P - 1)))
		return (ns + steps - 1) * ts
	}
	panic(fmt.Errorf("hockney: unknown algorithm %v", alg))
}
