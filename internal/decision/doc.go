// Package decision compiles a calibrated model set into a static decision
// table — the deployment form factor the paper's motivation calls for.
//
// Open MPI's fixed decision function (the hand-tuned thresholds of
// coll_tuned_decision_fixed.c that §5.3 shows degrading badly) is fast
// because it is a handful of threshold comparisons; the paper's selector
// is equally fast but needs the models at run time. This package bridges
// the two: Compile evaluates the models (§3, with the §4-fitted
// parameters) offline over a (P, m) grid, coalesces the argmin into
// per-P message-size intervals, and emits a Table that an MPI library
// could embed verbatim — Lookup is two binary searches and zero floating
// point. Save/Load give the table a JSON wire form and GoSource emits it
// as a compilable Go function, the moral equivalent of regenerating
// coll_tuned_decision_fixed.c from models instead of hand tuning
// (`mpicollperf decisiontable` is the CLI wrapper).
//
// The compiled table is exact on the grid by construction; between grid
// points it inherits the models' piecewise regularity (algorithm regions
// in m are contiguous for these cost shapes), which the tests check
// against direct model evaluation.
package decision
