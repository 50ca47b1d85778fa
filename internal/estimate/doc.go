// Package estimate implements the paper's second contribution (§4): the
// estimation of analytical-model parameters from communication experiments
// that *contain the modelled collective algorithm itself*, instead of the
// traditional point-to-point ping-pongs.
//
// # Estimators
//
// Two estimators map directly onto the paper's two procedures:
//
//   - Gamma (§4.1) measures T2(P), the mean time of the non-blocking
//     linear broadcast of one m_s-byte segment to P-1 children, for P from
//     2 to the platform's maximum linear fanout, and forms
//     γ(P) = T2(P)/T2(2). A linear regression over the table doubles as
//     the extrapolation for larger fanouts.
//
//   - AlphaBeta (§4.2, Fig. 4) runs, for M message sizes, a communication
//     experiment consisting of the modelled broadcast algorithm followed
//     by a linear-without-synchronisation gather, measured on the root.
//     With γ known, each experiment yields one linear equation
//     a_i·α + b_i·β = T_i whose coefficients come from the
//     implementation-derived model of the algorithm plus the gather model
//     (Formula 8). The system is brought to the canonical form
//     α + β·(b_i/a_i) = T_i/a_i and solved with the Huber regressor.
//
// Models chains the two into the full offline calibration a platform
// needs, and AlphaBetaFamily (extended.go) generalises the §4.2
// procedure to the other collective families, realising the paper's
// future-work claim.
//
// # Concurrency
//
// Every experiment in both procedures is an independent simulation, so
// the estimators dispatch their grids through experiment.Sweep.
// AlphaBetaConfig exposes the engine's knobs (Workers, Cache, Progress);
// Models goes furthest and submits the γ grid and all algorithms' size
// grids as one sweep, since γ only enters the coefficient computation
// *after* the measurements; AlphaBetaFamily likewise submits a whole
// extended family's specs × sizes grid as one sweep. Results are
// bit-identical to the serial loops regardless of worker count.
package estimate
