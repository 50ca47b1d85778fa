package guideline

import (
	"fmt"

	"mpicollperf/internal/coll"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/selection"
)

// Tolerances per family. Pattern equivalences are structurally guaranteed
// (the left minimum contains a program identical to the right
// composition), so their slack only needs to cover floating-point
// summary-statistics jitter. Monotonicity is exact in the simulator's
// deterministic core; its slack covers sampling noise at points where the
// true time difference is tiny. The empirical families (specialized ≾
// generic, algorithm sanity) compare genuinely different programs and get
// honest engineering slack, matching the ~10% / oracle-gap tolerances of
// Hunold & Carpen-Amarie's guideline runs.
const (
	tolPattern     = 0.01
	tolMonotone    = 0.02
	tolSpecialized = 0.10
	tolSanity      = 0.25
)

// Registry returns the full built-in guideline set: every family, every
// applicable collective algorithm. The slice is freshly built per call —
// callers may filter or reorder it freely.
func Registry() []Guideline {
	var gls []Guideline
	gls = append(gls, patternGuidelines()...)
	gls = append(gls, monotoneSizeGuidelines()...)
	gls = append(gls, monotoneProcsGuidelines()...)
	gls = append(gls, specializedGuidelines()...)
	gls = append(gls, sanityGuidelines()...)
	return gls
}

// Invariant returns the guidelines that hold by construction on any
// platform the simulator can express, perturbed or not — the pattern
// equivalences (the left minimum contains the right composition verbatim)
// and monotonicity in m (the same algorithm on the same link set with
// every transfer strictly larger). Monotonicity in P is deliberately NOT
// in this set: an algorithm's link set at P need not embed in its link
// set at 2P (bruck's modular peer pattern, a ring's wrap-around edge), so
// an adversarial perturbation of exactly the links only the smaller
// communicator crosses can legitimately invert it. This is the set
// FuzzGuidelines throws random cluster shapes, perturbations, and (P, m)
// points at.
func Invariant() []Guideline {
	var gls []Guideline
	gls = append(gls, patternGuidelines()...)
	gls = append(gls, monotoneSizeGuidelines()...)
	return gls
}

// Families lists the distinct families in gls, in first-seen order.
func Families(gls []Guideline) []Family {
	seen := make(map[Family]bool)
	var out []Family
	for _, g := range gls {
		if !seen[g.Family] {
			seen[g.Family] = true
			out = append(out, g.Family)
		}
	}
	return out
}

// --- atom sets ----------------------------------------------------------

// bcastAtoms is every broadcast the library ships: the model-selectable
// algorithms plus the van de Geijn compositions.
func bcastAtoms() []atom {
	return append(modelBcastAtoms(),
		vanDeGeijnAtom(coll.VanDeGeijnRing), vanDeGeijnAtom(coll.VanDeGeijnRecDoubling))
}

// modelBcastAtoms is the algorithm set the model-based selector chooses
// from: coll.BcastAlgorithms() at the platform segment size, without the
// van de Geijn compositions (the fitted models do not cover them).
func modelBcastAtoms() []atom {
	var out []atom
	for _, alg := range coll.BcastAlgorithms() {
		st := experiment.BcastStage(alg)
		out = append(out, atom{name: st.Name, stage: st})
	}
	return out
}

func scatterAtoms() []atom   { return specAtoms("scatter", estimate.ScatterSpecs(), true) }
func gatherAtoms() []atom    { return specAtoms("gather", estimate.GatherSpecs(), true) }
func allgatherAtoms() []atom { return specAtoms("allgather", estimate.AllgatherSpecs(), true) }
func alltoallAtoms() []atom  { return specAtoms("alltoall", estimate.AlltoallSpecs(), true) }
func reduceAtoms() []atom    { return specAtoms("reduce", estimate.ReduceSpecs(), false) }
func allreduceAtoms() []atom { return specAtoms("allreduce", estimate.AllreduceSpecs(), false) }
func reduceScatterAtoms() []atom {
	return specAtoms("reducescatter", estimate.ReduceScatterSpecs(), true)
}

// --- family builders ----------------------------------------------------

func patternGuidelines() []Guideline {
	return []Guideline{
		{
			Name:      "pattern:bcast<=scatter+allgather",
			Family:    FamilyPattern,
			Doc:       "the best broadcast must not lose to a binomial scatter followed by a ring allgather of the pieces",
			Left:      bestOf("min(bcast)", nil, bcastAtoms()...),
			Right:     single(scatterAllgather, nil),
			Tolerance: tolPattern,
		},
		{
			Name:      "pattern:allreduce<=reduce+bcast",
			Family:    FamilyPattern,
			Doc:       "the best allreduce must not lose to a binomial reduce followed by a binomial broadcast",
			Left:      bestOf("min(allreduce)", nil, allreduceAtoms()...),
			Right:     single(reduceThenBcast, nil),
			Tolerance: tolPattern,
		},
		{
			Name:      "pattern:allgather<=gather+bcast",
			Family:    FamilyPattern,
			Doc:       "the best allgather must not lose to a binomial gather followed by a binomial broadcast of the blocks",
			Left:      bestOf("min(allgather)", divisibleBlocks, allgatherAtoms()...),
			Right:     single(gatherThenBcast, divisibleBlocks),
			Tolerance: tolPattern,
		},
	}
}

// Remaps of the monotone families. doubleProcs keeps the message fixed —
// the right statement for the full-vector collectives (bcast, reduce,
// allreduce), where m is every rank's payload. doubleProcsScaled doubles
// the total alongside P so the per-rank block m/P stays constant — the
// right statement for the block collectives (scatter, gather, allgather,
// alltoall, reduce-scatter), matching the literature's "fixed message
// size per process" convention. Holding the *total* fixed instead would
// be a false law: at 2P each block halves, so a platform whose bottleneck
// NIC carries per-block traffic can legitimately finish the larger
// communicator first.
func doubleSize(cfg Config) Config        { cfg.MsgBytes *= 2; return cfg }
func doubleProcs(cfg Config) Config       { cfg.Procs *= 2; return cfg }
func doubleProcsScaled(cfg Config) Config { cfg.Procs *= 2; cfg.MsgBytes *= 2; return cfg }

// monotoneSize expands an atom set into one monotone-m guideline per
// algorithm: T(P, m) ≾ T(P, 2m).
func monotoneSize(atoms []atom, ok func(Config) bool) []Guideline {
	var gls []Guideline
	for _, a := range atoms {
		left := single(a, ok)
		gls = append(gls, Guideline{
			Name:      "monotone-m:" + a.name,
			Family:    FamilyMonotoneSize,
			Doc:       fmt.Sprintf("%s must not get faster when the message doubles", a.name),
			Left:      left,
			Right:     left.at(a.name+"@2m", doubleSize),
			Tolerance: tolMonotone,
		})
	}
	return gls
}

// monotoneProcs expands an atom set into one monotone-P guideline per
// algorithm: T(P, m) ≾ T(2P, remap(m)). The family is quiet-only: a
// deliberate fault on a link only the smaller communicator crosses (a
// ring's wrap-around edge, bruck's modular peers) legitimately inverts
// the law.
func monotoneProcs(atoms []atom, ok func(Config) bool, remap func(Config) Config, suffix string) []Guideline {
	var gls []Guideline
	for _, a := range atoms {
		left := single(a, ok)
		gls = append(gls, Guideline{
			Name:      "monotone-P:" + a.name,
			Family:    FamilyMonotoneProcs,
			Doc:       fmt.Sprintf("%s must not get faster when the communicator doubles", a.name),
			Left:      left,
			Right:     left.at(a.name+suffix, remap),
			Tolerance: tolMonotone,
			QuietOnly: true,
		})
	}
	return gls
}

func monotoneSizeGuidelines() []Guideline {
	var gls []Guideline
	gls = append(gls, monotoneSize(bcastAtoms(), nil)...)
	gls = append(gls, monotoneSize(scatterAtoms(), divisibleBlocks)...)
	gls = append(gls, monotoneSize(gatherAtoms(), divisibleBlocks)...)
	gls = append(gls, monotoneSize(allgatherAtoms(), divisibleBlocks)...)
	gls = append(gls, monotoneSize(alltoallAtoms(), divisibleBlocks)...)
	gls = append(gls, monotoneSize(reduceAtoms(), nil)...)
	gls = append(gls, monotoneSize(allreduceAtoms(), nil)...)
	gls = append(gls, monotoneSize(reduceScatterAtoms(), divisibleBlocks)...)
	return gls
}

// stable filters an atom set down to algorithms whose communication
// structure varies smoothly with P. Algorithms with non-power-of-two
// fallbacks (recursive doubling, split-binary, recursive halving) switch
// to a different program when P crosses a power of two, which can
// legitimately invert monotonicity in P; they are checked for monotone-m
// but excluded here.
func stable(atoms []atom, exclude ...string) []atom {
	drop := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		drop[n] = true
	}
	var out []atom
	for _, a := range atoms {
		if !drop[a.name] {
			out = append(out, a)
		}
	}
	return out
}

func monotoneProcsGuidelines() []Guideline {
	var gls []Guideline
	// Full-vector collectives: the message is every rank's payload and
	// stays fixed as the communicator doubles.
	gls = append(gls, monotoneProcs(
		stable(bcastAtoms(), "bcast/split_binary", "bcast/vdg_scatter_rdb_allgather"),
		nil, doubleProcs, "@2P")...)
	gls = append(gls, monotoneProcs(reduceAtoms(), nil, doubleProcs, "@2P")...)
	gls = append(gls, monotoneProcs(
		stable(allreduceAtoms(), "allreduce/recursive_doubling"),
		nil, doubleProcs, "@2P")...)
	// Block collectives: the per-rank block m/P stays fixed, so the total
	// doubles alongside P (divisibility of the remapped side, 2P | 2m,
	// is equivalent to P | m).
	gls = append(gls, monotoneProcs(scatterAtoms(), divisibleBlocks, doubleProcsScaled, "@2P,2m")...)
	gls = append(gls, monotoneProcs(gatherAtoms(), divisibleBlocks, doubleProcsScaled, "@2P,2m")...)
	gls = append(gls, monotoneProcs(
		stable(allgatherAtoms(), "allgather/recursive_doubling"),
		divisibleBlocks, doubleProcsScaled, "@2P,2m")...)
	gls = append(gls, monotoneProcs(alltoallAtoms(), divisibleBlocks, doubleProcsScaled, "@2P,2m")...)
	gls = append(gls, monotoneProcs(
		stable(reduceScatterAtoms(), "reducescatter/recursive_halving"),
		divisibleBlocks, doubleProcsScaled, "@2P,2m")...)
	return gls
}

// specializedGuidelines compares genuinely different programs, so the
// family is quiet-only: deliberate heavy faults can legitimately reorder
// implementations that stress different links (a degraded path into the
// root slows the rooted collective while the symmetric one routes around
// it).
func specializedGuidelines() []Guideline {
	return []Guideline{
		{
			Name:      "specialized:reduce<=allreduce",
			Family:    FamilySpecialized,
			Doc:       "a rooted reduce does strictly less work than an allreduce and must not be slower",
			Left:      bestOf("min(reduce)", nil, reduceAtoms()...),
			Right:     bestOf("min(allreduce)", nil, allreduceAtoms()...),
			Tolerance: tolSpecialized,
			QuietOnly: true,
		},
		{
			Name:      "specialized:gather<=allgather",
			Family:    FamilySpecialized,
			Doc:       "a rooted gather does strictly less work than an allgather and must not be slower",
			Left:      bestOf("min(gather)", divisibleBlocks, gatherAtoms()...),
			Right:     bestOf("min(allgather)", divisibleBlocks, allgatherAtoms()...),
			Tolerance: tolSpecialized,
			QuietOnly: true,
		},
		{
			Name:      "specialized:scatter<=bcast",
			Family:    FamilySpecialized,
			Doc:       "scattering P blocks moves a fraction of a broadcast's bytes and must not be slower",
			Left:      bestOf("min(scatter)", divisibleBlocks, scatterAtoms()...),
			Right:     bestOf("min(bcast)", nil, bcastAtoms()...),
			Tolerance: tolSpecialized,
			QuietOnly: true,
		},
		{
			Name:      "specialized:reducescatter<=allreduce",
			Family:    FamilySpecialized,
			Doc:       "a reduce-scatter is an allreduce minus the allgather phase and must not be slower",
			Left:      bestOf("min(reducescatter)", divisibleBlocks, reduceScatterAtoms()...),
			Right:     bestOf("min(allreduce)", nil, allreduceAtoms()...),
			Tolerance: tolSpecialized,
			QuietOnly: true,
		},
	}
}

func sanityGuidelines() []Guideline {
	return []Guideline{
		{
			Name:   "algorithm-sanity:model-selected-bcast",
			Family: FamilySanity,
			Doc:    "the broadcast algorithm the fitted model selects must be within tolerance of the measured best",
			Left: Recipe{
				Name: "selected(bcast)",
				Points: func(cfg Config, sel *selection.ModelBased) ([]experiment.Point, error) {
					if sel == nil {
						return nil, fmt.Errorf("guideline: no fitted models for %s (algorithm-sanity needs a Harness with sanity guidelines armed)", cfg.Profile.Name)
					}
					ch, err := sel.Select(cfg.Procs, cfg.MsgBytes)
					if err != nil {
						return nil, err
					}
					return []experiment.Point{{Stage: experiment.BcastStage(ch.Alg), Procs: cfg.Procs, MsgBytes: cfg.MsgBytes, SegSize: ch.SegSize}}, nil
				},
			},
			Right:     bestOf("min(bcast@model-segsize)", nil, modelBcastAtoms()...),
			Tolerance: tolSanity,
			QuietOnly: true,
		},
	}
}
