package guideline

import (
	"fmt"
	"strings"

	"mpicollperf/internal/coll"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/selection"
)

// --- measurement atoms -------------------------------------------------
//
// An atom is one collective algorithm (or composition) measured at a
// configuration: one sweep point in Completion mode with synthetic
// messages. Block collectives interpret cfg.MsgBytes as the total buffer,
// matching the guideline literature's convention that both sides of a
// comparison move the same total payload; their stages (the estimate
// package's specs) take the per-rank block m/P as size parameter.

// atom is one labelled program variant inside a recipe.
type atom struct {
	// name labels the atom in reports ("reducescatter/ring").
	name  string
	stage *experiment.Stage
	// block measures the stage at the per-rank block m/P instead of m.
	block bool
}

// point is the atom's sweep point at cfg, at the platform segment size.
func (a atom) point(cfg Config) experiment.Point {
	pt := experiment.Point{Stage: a.stage, Procs: cfg.Procs, MsgBytes: cfg.MsgBytes, SegSize: cfg.Profile.SegmentSize}
	if a.block {
		pt.MsgBytes /= cfg.Procs
	}
	return pt
}

// specAtoms labels each spec's stage family/<algorithm>.
func specAtoms(family string, specs []estimate.CollectiveSpec, block bool) []atom {
	out := make([]atom, len(specs))
	for i := range specs {
		name := specs[i].Name
		out[i] = atom{name: family + name[strings.IndexByte(name, '/'):], stage: &specs[i].Stage, block: block}
	}
	return out
}

// vanDeGeijnAtom is coll.BcastVanDeGeijn, the scatter+allgather broadcast.
func vanDeGeijnAtom(v coll.VanDeGeijnVariant) atom {
	name := fmt.Sprintf("bcast/vdg_%v", v)
	return atom{name: name, stage: &experiment.Stage{
		Name:              name,
		TimingIndependent: true,
		Run: func(p *mpi.Proc, m, _ int) {
			coll.BcastVanDeGeijn(p, v, 0, coll.Synthetic(m))
		},
	}}
}

// --- composed right-hand sides -----------------------------------------
//
// The pattern-equivalence compositions replicate, stage for stage and
// byte for byte, the library's own composed algorithms
// (coll.BcastVanDeGeijn ≡ scatter+allgather, coll.AllreduceReduceBcast ≡
// reduce+bcast, coll.AllgatherGatherBcast ≡ gather+bcast). That identity
// is what makes the pattern guidelines mechanically sound on every
// platform, perturbed or not: the left side minimises over a set that
// contains a program with the exact same event schedule as the right
// side, so min(left) ≤ right holds by construction and a violation can
// only ever signal a harness or simulator defect. Each composition runs
// both collectives back to back within one repetition.

// composed is an atom whose stage runs a composition at the total m.
func composed(name string, run func(p *mpi.Proc, m, segSize int)) atom {
	return atom{name: name, stage: &experiment.Stage{Name: name, TimingIndependent: true, Run: run}}
}

var (
	scatterAllgather = composed("scatter(binomial)+allgather(ring)", func(p *mpi.Proc, m, _ int) {
		bs := (m + p.Size() - 1) / p.Size()
		padded := p.Size() * bs
		if p.Rank() == 0 {
			coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(padded), bs)
		} else {
			coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(bs), bs)
		}
		coll.Allgather(p, coll.AllgatherRing, coll.Synthetic(padded), bs)
	})
	reduceThenBcast = composed("reduce(binomial)+bcast(binomial)", func(p *mpi.Proc, m, seg int) {
		coll.Reduce(p, coll.ReduceBinomial, 0, coll.Synthetic(m), nil, seg)
		coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(m), seg)
	})
	gatherThenBcast = composed("gather(binomial)+bcast(binomial)", func(p *mpi.Proc, m, _ int) {
		bs := m / p.Size()
		if p.Rank() == 0 {
			coll.Gather(p, coll.GatherBinomial, 0, coll.Synthetic(m), bs)
		} else {
			coll.Gather(p, coll.GatherBinomial, 0, coll.Synthetic(bs), bs)
		}
		coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(m), bs)
	})
)

// --- recipe combinators -------------------------------------------------

// bestOf builds the min-over-algorithms recipe: its value is the fastest
// atom. The measured minimum is the "library does its best" left side of
// pattern and specialized guidelines.
func bestOf(name string, ok func(Config) bool, atoms ...atom) Recipe {
	return Recipe{
		Name: name,
		OK:   ok,
		Points: func(cfg Config, _ *selection.ModelBased) ([]experiment.Point, error) {
			pts := make([]experiment.Point, len(atoms))
			for i, a := range atoms {
				pts[i] = a.point(cfg)
			}
			return pts, nil
		},
	}
}

// single wraps one atom as a recipe.
func single(a atom, ok func(Config) bool) Recipe { return bestOf(a.name, ok, a) }

// at rewrites the configuration a recipe measures at — the derived side of
// the monotonicity guidelines (same platform, scaled m or P).
func (r Recipe) at(name string, remap func(Config) Config) Recipe {
	return Recipe{
		Name: name,
		OK: func(cfg Config) bool {
			cfg2 := remap(cfg)
			if cfg2.Procs < 2 || cfg2.Procs > cfg2.Profile.Nodes || cfg2.MsgBytes <= 0 {
				return false
			}
			return r.OK == nil || r.OK(cfg2)
		},
		Points: func(cfg Config, sel *selection.ModelBased) ([]experiment.Point, error) {
			return r.Points(remap(cfg), sel)
		},
	}
}

// divisibleBlocks accepts configurations whose total message splits into
// P equal blocks — the applicability domain of the block collectives.
func divisibleBlocks(cfg Config) bool { return cfg.MsgBytes%cfg.Procs == 0 }
