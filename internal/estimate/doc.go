// Package estimate implements the paper's second contribution (§4): the
// estimation of analytical-model parameters from communication experiments
// that *contain the modelled collective algorithm itself*, instead of the
// traditional point-to-point ping-pongs.
//
// # Estimators
//
// The paper's two procedures map onto one grid each:
//
//   - γ (§4.1, Gamma) measures T2(P), the mean time of the non-blocking
//     linear broadcast of one m_s-byte segment to P-1 children, for P from
//     2 to the platform's maximum linear fanout, and forms
//     γ(P) = T2(P)/T2(2). A linear regression over the table doubles as
//     the extrapolation for larger fanouts.
//
//   - α/β (§4.2, Fig. 4) runs, for M message sizes, a communication
//     experiment consisting of the modelled broadcast algorithm followed
//     by a linear-without-synchronisation gather, measured on the root
//     (BcastSpecs). With γ known, each experiment yields one linear
//     equation a_i·α + b_i·β = T_i whose coefficients come from the
//     implementation-derived model of the algorithm plus the gather model
//     (Formula 8). The system is brought to the canonical form
//     α + β·(b_i/a_i) = T_i/a_i and solved with the Huber regressor.
//
// A CollectiveSpec is one algorithm's experiment and model coefficients.
// The broadcast specs and the seven extended families (AllSpecFamilies,
// extended.go) are built by one constructor, and every spec is fitted the
// same way, realising the paper's future-work claim that the method
// generalises beyond broadcast.
//
// Calibrate is the full offline calibration: the γ grid, the broadcast
// specs and any extended specs in one sweep. Models is Calibrate without
// extended specs, and AlphaBetaFamily fits specs against a known γ.
//
// # Concurrency
//
// Every experiment is an independent simulation, so the estimators
// dispatch their grids through experiment.Sweep. AlphaBetaConfig exposes
// the engine's knobs (Workers, Cache, Progress). Calibrate submits the γ
// grid and every spec's size grid as one sweep, since γ only enters the
// coefficient computation *after* the measurements. Results are
// bit-identical to the serial loops regardless of worker count.
package estimate
