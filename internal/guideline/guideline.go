// Package guideline mechanically verifies performance guidelines —
// self-consistency laws a sane collective library must obey — against the
// simulator, reproducing the methodology of Hunold & Carpen-Amarie
// ("Tuning MPI Collectives by Verifying Performance Guidelines",
// arXiv:1707.09965) on top of this repository's measurement engines.
//
// A guideline is a declarative statement "left ≾ right": the measured
// time of the left recipe must not exceed the measured time of the right
// recipe beyond a tolerance, at every applicable configuration. Four
// families are implemented:
//
//   - pattern equivalences: a collective must not lose to a composition
//     of collectives that implements it (Bcast ≾ Scatter+Allgather,
//     Allreduce ≾ Reduce+Bcast, Allgather ≾ Gather+Bcast);
//   - monotonicity: per algorithm, more bytes (or more processes) must
//     not be faster (T(P, m) ≾ T(P, 2m), T(P, m) ≾ T(2P, m));
//   - specialized ≾ generic: a collective that does strictly less work
//     must not be slower (Reduce ≾ Allreduce, Gather ≾ Allgather,
//     Scatter ≾ Bcast, ReduceScatter ≾ Allreduce);
//   - algorithm sanity: the algorithm the fitted model selects must be
//     within tolerance of the best measured algorithm.
//
// The checker (Check, Harness) turns a guideline × (P, m) × profile ×
// perturbation grid into sweep points — both sides of every check, with
// points shared between guidelines measured once per platform — measures
// each platform's points in one experiment.Sweep, so thousands of
// configurations verify in seconds, and reports violations as structured
// artifacts. Verdicts are engine-independent: the compile and replay
// engines produce measurements bit-identical to the scheduler, so the
// same grid yields the same verdict set on every engine and worker count.
package guideline

import (
	"fmt"
	"math"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/selection"
)

// Family groups guidelines by the self-consistency law they instantiate.
type Family string

const (
	// FamilyPattern is the pattern-equivalence family: a collective ≾ a
	// composition of collectives implementing it.
	FamilyPattern Family = "pattern"
	// FamilyMonotoneSize: per algorithm, T(P, m) ≾ T(P, m') for m ≤ m'.
	FamilyMonotoneSize Family = "monotone-m"
	// FamilyMonotoneProcs: per algorithm, T(P, m) ≾ T(P', m) for P ≤ P'.
	FamilyMonotoneProcs Family = "monotone-P"
	// FamilySpecialized: a collective doing strictly less work ≾ the
	// generic collective subsuming it.
	FamilySpecialized Family = "specialized"
	// FamilySanity: the model-selected algorithm ≾ every other measured
	// algorithm (within tolerance of the oracle).
	FamilySanity Family = "algorithm-sanity"
)

// Config is one checkable configuration cell: a platform (perturbation
// already composed into the profile), a communicator size, and a total
// message size.
type Config struct {
	// Profile is the platform the check runs on; a perturbed platform
	// carries its perturbation in Profile.Net.Perturb (and its name
	// carries the spec's compact form, see cluster.Profile.Perturbed).
	Profile cluster.Profile
	// Procs is the communicator size P.
	Procs int
	// MsgBytes is the total message size m in bytes. Block collectives
	// (scatter, gather, allgather, alltoall, reduce-scatter) divide it
	// into P blocks, so their recipes require P | m.
	MsgBytes int
}

// Quiet reports whether the configuration's platform is unperturbed.
func (c Config) Quiet() bool { return c.Profile.Net.Perturb.Empty() }

func (c Config) String() string {
	return fmt.Sprintf("%s P=%d m=%d", c.Profile.Name, c.Procs, c.MsgBytes)
}

// Recipe is one side of a guideline: the sweep points it measures at a
// configuration (single collectives, compositions, minima over algorithm
// sets), whose fastest measurement is the side's value.
type Recipe struct {
	// Name labels the recipe in reports ("min(bcast)", "scatter+allgather").
	Name string
	// OK, if non-nil, restricts the recipe's applicability (block
	// divisibility, communicator bounds). A guideline applies to a
	// configuration only when both sides' OK accept it.
	OK func(cfg Config) bool
	// Points returns the points measured at cfg; the recipe's value is the
	// minimum-mean measurement among them, the first on a tie. sel is the
	// platform's fitted broadcast selector, nil when the harness fitted
	// none (it fits one for quiet platforms with algorithm-sanity checks).
	Points func(cfg Config, sel *selection.ModelBased) ([]experiment.Point, error)
}

// Guideline is one declarative performance law: Left ≾ Right within
// Tolerance at every configuration the predicates accept.
type Guideline struct {
	// Name identifies the guideline in reports and metrics
	// ("pattern:bcast<=scatter+allgather").
	Name string
	// Family is the self-consistency family the guideline instantiates.
	Family Family
	// Doc is a one-line statement of the law.
	Doc string
	// Left and Right are the guideline's two measurement recipes; the law
	// is Left ≾ Right.
	Left, Right Recipe
	// Tolerance is the relative slack of the ≾ comparator: the guideline
	// holds when Left ≤ (1+Tolerance)·Right, or when measurement noise
	// makes the ordering unresolvable (see Holds).
	Tolerance float64
	// QuietOnly restricts the guideline to unperturbed platforms —
	// deliberate faults may legitimately break the law (a straggler
	// joining at higher P inverts monotonicity in P, a degraded-link
	// oracle diverges from the quiet-fitted model).
	QuietOnly bool
	// Applies, if non-nil, adds a guideline-level applicability predicate
	// on top of QuietOnly and the recipes' OK predicates.
	Applies func(cfg Config) bool
}

// AppliesTo reports whether the guideline is checkable at cfg: the
// platform admits it, both recipes accept it, and any guideline-level
// predicate passes.
func (g Guideline) AppliesTo(cfg Config) bool {
	if cfg.Procs < 2 || cfg.Procs > cfg.Profile.Nodes || cfg.MsgBytes <= 0 {
		return false
	}
	if g.QuietOnly && !cfg.Quiet() {
		return false
	}
	if g.Applies != nil && !g.Applies(cfg) {
		return false
	}
	if g.Left.OK != nil && !g.Left.OK(cfg) {
		return false
	}
	if g.Right.OK != nil && !g.Right.OK(cfg) {
		return false
	}
	return true
}

// Holds applies the tolerance-aware ≾ comparator: left ≾ right holds
// when left's mean does not exceed right's mean by more than the relative
// tolerance — or, honoring measurement noise, when the two Student-t
// confidence intervals overlap, in which case the ordering is not
// resolvable at the measurements' confidence level and no violation can
// be claimed. A violation therefore requires the whole left interval to
// sit above the tolerance-scaled right interval.
func Holds(left, right experiment.Measurement, tol float64) bool {
	if tol < 0 {
		tol = 0
	}
	if left.Mean <= (1+tol)*right.Mean {
		return true
	}
	return left.Mean-left.CI.HalfWidth <= (1+tol)*(right.Mean+right.CI.HalfWidth)
}

// Ratio is the observed left/right mean ratio reported for a check (∞
// when the right mean is zero).
func Ratio(left, right experiment.Measurement) float64 {
	if right.Mean == 0 {
		if left.Mean == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return left.Mean / right.Mean
}
