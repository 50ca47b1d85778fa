// Package selection implements the three broadcast-algorithm selectors the
// paper compares (§5.3, Fig. 5, Table 3):
//
//   - ModelBased — the paper's contribution: evaluate the
//     implementation-derived analytical model of every algorithm with its
//     per-algorithm fitted parameters and pick the minimum. This is the
//     run-time decision function; its cost is a handful of floating-point
//     operations per algorithm (benchmarked in the repository root).
//   - OpenMPIFixed — a port of Open MPI 3.1's hard-coded broadcast
//     decision function (coll_tuned_decision_fixed.c), including its
//     segment-size choices.
//   - Oracle — the empirical best: measure every algorithm and return the
//     fastest (the paper's green line). The per-algorithm measurements
//     fan out over experiment.Sweep; OracleSweep exposes the engine so
//     callers can bound workers, share a measurement cache across (P, m)
//     evaluation points, and cancel mid-flight.
//
// Compare evaluates all three for one (P, m) — one row of the paper's
// Table 3 — reporting each selector's measured time and its degradation
// relative to the oracle. ExtendedSelector (extended.go) applies the
// model-based selection to the beyond-broadcast collective families
// calibrated through estimate.Calibrate or estimate.AlphaBetaFamily.
//
// In the paper's terms: internal/model supplies the analytical models
// (§3), internal/estimate their parameters (§4), and this package the
// head-to-head selection experiment those feed (§5.3).
package selection
