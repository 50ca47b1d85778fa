package guideline

import (
	"fmt"
	"sync"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/selection"
)

// platform is the state one checked platform shares across every worker
// and guideline of a run: the measurement memo (each distinct recipe atom
// is measured once per platform no matter how many guidelines reference
// it), and the lazily fitted model-based selector for the
// algorithm-sanity family.
type platform struct {
	pr   cluster.Profile
	set  experiment.Settings
	memo sync.Map // string -> *memoEntry

	selOnce sync.Once
	sel     selection.ModelBased
	selErr  error
	fitSel  func() (selection.ModelBased, error)
}

type memoEntry struct {
	once sync.Once
	meas experiment.Measurement
	err  error
}

// Env is the execution environment a Recipe measures in: one worker's
// warm Runner plus the platform state shared by all workers. Measurements
// are deterministic per (platform, program, settings) — which worker's
// Runner computes a memo entry never changes the result.
type Env struct {
	// Runner is this worker's Runner for the platform.
	Runner *mpi.Runner

	plat *platform
}

// NewEnv builds a standalone single-worker environment for pr — the way
// tests and one-off recipe evaluations measure without a Harness.
func NewEnv(pr cluster.Profile, set experiment.Settings, r *mpi.Runner) *Env {
	return &Env{Runner: r, plat: &platform{pr: pr, set: set}}
}

// Measure runs the composed stages at nprocs on the environment's
// platform in Completion mode, memoised under key: the first caller of a
// key computes (single-flight), everyone else gets the cached
// measurement. Every recipe atom is timing-independent, so the
// composition is compiled goroutine-free (see experiment.MeasureComposed).
func (e *Env) Measure(key string, nprocs int, stages ...experiment.Op) (experiment.Measurement, error) {
	v, _ := e.plat.memo.LoadOrStore(key, &memoEntry{})
	ent := v.(*memoEntry)
	ent.once.Do(func() {
		ent.meas, ent.err = experiment.MeasureComposed(
			e.Runner, e.plat.pr, nprocs, e.plat.set, experiment.Completion, true, stages...)
	})
	return ent.meas, ent.err
}

// Selector returns the platform's fitted model-based broadcast selector,
// fitting it on first use (single-flight). It errors when the harness did
// not arm model fitting for this platform — the algorithm-sanity family
// is then inapplicable.
func (e *Env) Selector() (selection.ModelBased, error) {
	if e.plat.fitSel == nil {
		return selection.ModelBased{}, fmt.Errorf("guideline: no fitted models for %s (algorithm-sanity needs a Harness with sanity guidelines armed)", e.plat.pr.Name)
	}
	e.plat.selOnce.Do(func() { e.plat.sel, e.plat.selErr = e.plat.fitSel() })
	return e.plat.sel, e.plat.selErr
}

// --- measurement atoms -------------------------------------------------
//
// Each atom measures one collective algorithm at a configuration, in
// Completion mode with synthetic messages, memoised per platform. Block
// collectives interpret cfg.MsgBytes as the total buffer (block size
// m/P), matching the guideline literature's convention that both sides of
// a comparison move the same total payload.

func measureBcast(env *Env, cfg Config, alg coll.BcastAlgorithm, segSize int) (experiment.Measurement, error) {
	m := cfg.MsgBytes
	key := fmt.Sprintf("bcast/%v/seg=%d/P=%d/m=%d", alg, segSize, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.Bcast(p, alg, 0, coll.Synthetic(m), segSize)
	})
}

func measureVanDeGeijn(env *Env, cfg Config, variant coll.VanDeGeijnVariant) (experiment.Measurement, error) {
	m := cfg.MsgBytes
	key := fmt.Sprintf("bcast/vdg_%v/P=%d/m=%d", variant, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.BcastVanDeGeijn(p, variant, 0, coll.Synthetic(m))
	})
}

func measureScatter(env *Env, cfg Config, alg coll.ScatterAlgorithm) (experiment.Measurement, error) {
	m, bs := cfg.MsgBytes, cfg.MsgBytes/cfg.Procs
	key := fmt.Sprintf("scatter/%v/P=%d/m=%d", alg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		if p.Rank() == 0 {
			coll.Scatter(p, alg, 0, coll.Synthetic(m), bs)
		} else {
			coll.Scatter(p, alg, 0, coll.Synthetic(bs), bs)
		}
	})
}

func measureGather(env *Env, cfg Config, alg coll.GatherAlgorithm) (experiment.Measurement, error) {
	m, bs := cfg.MsgBytes, cfg.MsgBytes/cfg.Procs
	key := fmt.Sprintf("gather/%v/P=%d/m=%d", alg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		if p.Rank() == 0 {
			coll.Gather(p, alg, 0, coll.Synthetic(m), bs)
		} else {
			coll.Gather(p, alg, 0, coll.Synthetic(bs), bs)
		}
	})
}

func measureAllgather(env *Env, cfg Config, alg coll.AllgatherAlgorithm) (experiment.Measurement, error) {
	m, bs := cfg.MsgBytes, cfg.MsgBytes/cfg.Procs
	key := fmt.Sprintf("allgather/%v/P=%d/m=%d", alg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.Allgather(p, alg, coll.Synthetic(m), bs)
	})
}

func measureAlltoall(env *Env, cfg Config, alg coll.AlltoallAlgorithm) (experiment.Measurement, error) {
	m, bs := cfg.MsgBytes, cfg.MsgBytes/cfg.Procs
	key := fmt.Sprintf("alltoall/%v/P=%d/m=%d", alg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.Alltoall(p, alg, coll.Synthetic(m), coll.Synthetic(m), bs)
	})
}

func measureReduce(env *Env, cfg Config, alg coll.ReduceAlgorithm) (experiment.Measurement, error) {
	m, seg := cfg.MsgBytes, cfg.Profile.SegmentSize
	key := fmt.Sprintf("reduce/%v/seg=%d/P=%d/m=%d", alg, seg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.Reduce(p, alg, 0, coll.Synthetic(m), nil, seg)
	})
}

func measureAllreduce(env *Env, cfg Config, alg coll.AllreduceAlgorithm) (experiment.Measurement, error) {
	m, seg := cfg.MsgBytes, cfg.Profile.SegmentSize
	key := fmt.Sprintf("allreduce/%v/seg=%d/P=%d/m=%d", alg, seg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.Allreduce(p, alg, coll.Synthetic(m), nil, seg)
	})
}

func measureReduceScatter(env *Env, cfg Config, alg coll.ReduceScatterAlgorithm) (experiment.Measurement, error) {
	m, bs := cfg.MsgBytes, cfg.MsgBytes/cfg.Procs
	key := fmt.Sprintf("reducescatter/%v/P=%d/m=%d", alg, cfg.Procs, m)
	return env.Measure(key, cfg.Procs, func(p *mpi.Proc) {
		coll.ReduceScatter(p, alg, coll.Synthetic(m), nil, bs)
	})
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
// only ever signal a harness or simulator defect.

func measureScatterAllgather(env *Env, cfg Config) (experiment.Measurement, error) {
	P, m := cfg.Procs, cfg.MsgBytes
	bs := (m + P - 1) / P
	padded := P * bs
	key := fmt.Sprintf("composed/scatter+allgather/P=%d/m=%d", P, m)
	return env.Measure(key, P,
		func(p *mpi.Proc) {
			if p.Rank() == 0 {
				coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(padded), bs)
			} else {
				coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(bs), bs)
			}
		},
		func(p *mpi.Proc) {
			coll.Allgather(p, coll.AllgatherRing, coll.Synthetic(padded), bs)
		})
}

func measureReduceThenBcast(env *Env, cfg Config) (experiment.Measurement, error) {
	P, m, seg := cfg.Procs, cfg.MsgBytes, cfg.Profile.SegmentSize
	key := fmt.Sprintf("composed/reduce+bcast/seg=%d/P=%d/m=%d", seg, P, m)
	return env.Measure(key, P,
		func(p *mpi.Proc) {
			coll.Reduce(p, coll.ReduceBinomial, 0, coll.Synthetic(m), nil, seg)
		},
		func(p *mpi.Proc) {
			coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(m), seg)
		})
}

func measureGatherThenBcast(env *Env, cfg Config) (experiment.Measurement, error) {
	P, m := cfg.Procs, cfg.MsgBytes
	bs := m / P
	key := fmt.Sprintf("composed/gather+bcast/P=%d/m=%d", P, m)
	return env.Measure(key, P,
		func(p *mpi.Proc) {
			if p.Rank() == 0 {
				coll.Gather(p, coll.GatherBinomial, 0, coll.Synthetic(m), bs)
			} else {
				coll.Gather(p, coll.GatherBinomial, 0, coll.Synthetic(bs), bs)
			}
		},
		func(p *mpi.Proc) {
			coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(m), bs)
		})
}

// --- recipe combinators -------------------------------------------------

// atom is one measurable program variant inside a min-over-algorithms
// recipe.
type atom struct {
	name string
	run  func(env *Env, cfg Config) (experiment.Measurement, error)
}

// bestOf builds the min-over-algorithms recipe: measure every atom and
// return the fastest. The measured minimum is the "library does its best"
// left side of pattern and specialized guidelines.
func bestOf(name string, ok func(Config) bool, atoms ...atom) Recipe {
	return Recipe{
		Name: name,
		OK:   ok,
		Measure: func(env *Env, cfg Config) (experiment.Measurement, error) {
			var best experiment.Measurement
			for i, a := range atoms {
				meas, err := a.run(env, cfg)
				if err != nil {
					return experiment.Measurement{}, fmt.Errorf("%s: %w", a.name, err)
				}
				if i == 0 || meas.Mean < best.Mean {
					best = meas
				}
			}
			return best, nil
		},
	}
}

// single wraps one atom as a recipe.
func single(a atom, ok func(Config) bool) Recipe {
	return Recipe{Name: a.name, OK: ok, Measure: a.run}
}

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
		Measure: func(env *Env, cfg Config) (experiment.Measurement, error) {
			return r.Measure(env, remap(cfg))
		},
	}
}

// divisibleBlocks accepts configurations whose total message splits into
// P equal blocks — the applicability domain of the block collectives.
func divisibleBlocks(cfg Config) bool { return cfg.MsgBytes%cfg.Procs == 0 }
