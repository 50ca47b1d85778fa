package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"time"

	"mpicollperf"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/guideline"
	"mpicollperf/internal/obs"
)

// Pinned digests of the calibrated α/β/γ at the default seed on the
// full-scale platform. Any change to them is a change in what the
// library computes, not in how fast; other seeds are checked for
// repeatability within a run instead.
const (
	pinnedCalibration = "a312dfaac5381581"
	pinnedExtended    = "34c5130a8b060033"
	// pinnedChecks is the guideline grid's check count (results/guidelines.json).
	pinnedChecks = 2808
)

// Check kinds: every operation of a kind must produce the kind's
// reference digest.
const (
	chkCalibration = "calibration"
	chkExtended    = "extended"
	chkGuidelines  = "guidelines"
	chkQuick       = "guidelines-quick"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny swaps in 16-node platforms and the quick guideline grid, so
	// the tests can run every workload end to end in seconds. Pinned
	// digests do not apply to it.
	tiny   bool
	outDir string
}

// bench is one benchmark run: the seeded inputs, the correctness
// references, and the samples gathered so far.
type bench struct {
	cfg config
	// pr is the calibration platform: grisou, with the simulator's noise
	// seed derived from the workload seed (seed 1 is grisou's default).
	pr mpicollperf.Profile
	// guideProfiles are the guideline grid's base platforms.
	guideProfiles []mpicollperf.Profile
	tr            *tracer

	refs              map[string]string
	samples           map[string][]float64
	attempted, failed int
	failures          []string
	notes             []string
	storeSeq          int
}

func newBench(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, pr: mpicollperf.Grisou(), refs: map[string]string{}, samples: map[string][]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	for _, pr := range []mpicollperf.Profile{mpicollperf.Grisou(), mpicollperf.Gros()} {
		small, err := pr.WithNodes(16)
		if err != nil {
			return nil, err
		}
		small.Net.NoiseSeed += cfg.seed - 1
		b.guideProfiles = append(b.guideProfiles, small)
	}
	b.pr.Net.NoiseSeed += cfg.seed - 1
	if cfg.tiny {
		b.pr = b.guideProfiles[0]
		b.guideProfiles = b.guideProfiles[:1]
		return b, nil
	}
	b.refs[chkGuidelines] = fmt.Sprintf("checks=%d violations=0", pinnedChecks)
	if cfg.seed == 1 {
		b.refs[chkCalibration] = pinnedCalibration
		b.refs[chkExtended] = pinnedExtended
	}
	return b, nil
}

// settle collects the garbage earlier operations left, so an operation's
// time does not depend on how much its predecessor allocated.
func settle() { runtime.GC() }

func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// verify counts one operation, and records it as failed when err is
// non-nil or digest differs from the kind's reference: the pinned
// digest, or else the first digest this run produced.
func (b *bench) verify(kind string, err error, digest string) bool {
	b.attempted++
	if err == nil {
		ref, ok := b.refs[kind]
		if !ok {
			b.refs[kind] = digest
			return true
		}
		if ref == digest {
			return true
		}
		err = fmt.Errorf("%s: got %s, want %s", kind, digest, ref)
	}
	b.failed++
	b.failures = append(b.failures, err.Error())
	return false
}

func bitsHex(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(h, "%016x,", math.Float64bits(v))
	}
}

// modelsDigest fingerprints a broadcast calibration: γ table and fit,
// and every algorithm's α/β, bit for bit.
func modelsDigest(sel *mpicollperf.Selector) string {
	if sel == nil {
		return ""
	}
	h := sha256.New()
	g := sel.Models.Gamma
	ps := make([]int, 0, len(g.Table))
	for p := range g.Table {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		fmt.Fprintf(h, "g%d=", p)
		bitsHex(h, g.Table[p])
	}
	bitsHex(h, g.Fit.Intercept, g.Fit.Slope)
	for _, alg := range mpicollperf.BcastAlgorithms() {
		par := sel.Models.Params[alg]
		fmt.Fprintf(h, "%s=", alg)
		bitsHex(h, par.Alpha, par.Beta)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// extendedDigest fingerprints the α/β of every extended family.
func extendedDigest(sel *mpicollperf.Selector) string {
	h := sha256.New()
	for _, fam := range mpicollperf.Collectives() {
		es := sel.Extended[fam]
		if es == nil {
			fmt.Fprintf(h, "%s=missing;", fam)
			continue
		}
		for i, spec := range es.Specs {
			fmt.Fprintf(h, "%s=", spec.Name)
			bitsHex(h, es.Params[i].Alpha, es.Params[i].Beta)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// coldCalibrate runs Calibrate with the paper defaults into an empty
// measurement cache, which it returns filled.
func (b *bench) coldCalibrate(ctx context.Context, opts ...mpicollperf.Option) (time.Duration, *mpicollperf.MeasurementCache) {
	cache := mpicollperf.NewMeasurementCache()
	settle()
	d := b.calibrate(ctx, cache, opts...)
	return d, cache
}

// warmBatch runs n calibrations against a filled cache back to back and
// returns their mean time: one warm calibration is a fraction of a
// millisecond, too short to time alone against the host's jitter.
func (b *bench) warmBatch(ctx context.Context, cache *mpicollperf.MeasurementCache, n int) time.Duration {
	settle()
	var total time.Duration
	for i := 0; i < n; i++ {
		total += b.calibrate(ctx, cache)
	}
	return total / time.Duration(n)
}

// calibrate runs one checked Calibrate against cache.
func (b *bench) calibrate(ctx context.Context, cache *mpicollperf.MeasurementCache, opts ...mpicollperf.Option) time.Duration {
	opts = append(opts, mpicollperf.WithCache(cache))
	t0 := time.Now()
	sel, err := mpicollperf.Calibrate(ctx, b.pr, opts...)
	d := time.Since(t0)
	b.verify(chkCalibration, err, modelsDigest(sel))
	return d
}

// gamma calibrates the platform with opts (a checked operation) for the
// γ the extended families reuse.
func (b *bench) gamma(ctx context.Context, opts ...mpicollperf.Option) (mpicollperf.Gamma, error) {
	sel, err := mpicollperf.Calibrate(ctx, b.pr, opts...)
	if !b.verify(chkCalibration, err, modelsDigest(sel)) {
		return mpicollperf.Gamma{}, fmt.Errorf("calibrating γ: %s", b.failures[len(b.failures)-1])
	}
	return sel.Models.Gamma, nil
}

// extendedPass fits all seven extended families with γ through the
// selector's side door, one span per family, and returns the total and
// per-family times.
func (b *bench) extendedPass(ctx context.Context, g mpicollperf.Gamma, op, parent int64) (time.Duration, map[string]float64) {
	sel := &mpicollperf.Selector{
		Profile: b.pr,
		Models:  mpicollperf.Models{Cluster: b.pr.Name, SegSize: b.pr.SegmentSize, Gamma: g},
	}
	perFam := map[string]float64{}
	var err error
	settle()
	t0 := time.Now()
	for _, fam := range mpicollperf.Collectives() {
		sp := b.tr.start(op, parent, "estimate", "core.Selector.CalibrateExtendedOp "+fam)
		f0 := time.Now()
		err = sel.CalibrateExtendedOp(ctx, fam, mpicollperf.CalibrationConfig{})
		perFam[fam] = time.Since(f0).Seconds()
		sp.end()
		if err != nil {
			break
		}
	}
	d := time.Since(t0)
	b.verify(chkExtended, err, extendedDigest(sel))
	return d, perFam
}

// guidelineSettings are verify-guidelines' measurement settings.
var guidelineSettings = experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}

// guidelinePerturbSeed seeds the grid's random perturbations. It stays at
// verify-guidelines' default rather than following the workload seed:
// which perturbations are drawn changes the grid's cost by ±20 % (a
// brownout forces the scheduler engine), which would drown a real
// regression. The workload seed varies the platforms' noise seeds.
const guidelinePerturbSeed = 1

// harness is the default verify-guidelines grid: grisou and gros at 16
// nodes plus two random perturbations of each; P ∈ {4, 8, 16} × 4 sizes.
// quick is the `-quick` grid.
func (b *bench) harness(quick bool, reg *obs.Registry) guideline.Harness {
	h := guideline.Harness{
		Profiles:            b.guideProfiles,
		RandomPerturbations: 2,
		Seed:                guidelinePerturbSeed,
		Intensity:           0.5,
		Settings:            guidelineSettings,
		Metrics:             reg,
	}
	if quick || b.cfg.tiny {
		h.Profiles = h.Profiles[:1]
		h.RandomPerturbations = 1
		h.Procs = []int{4, 8}
		h.Sizes = []int{1 << 10, 64 << 10}
	}
	return h
}

// perturbations returns the random platforms h composes onto base,
// exactly as Harness.Run draws them.
func perturbations(h guideline.Harness, base mpicollperf.Profile) []mpicollperf.Profile {
	seed := h.Seed
	if seed == 0 {
		seed = 1
	}
	var out []mpicollperf.Profile
	for i := 0; i < h.RandomPerturbations; i++ {
		out = append(out, base.Perturbed(mpicollperf.RandomPerturbation(seed+int64(i), h.Intensity, base.Net.NICs())))
	}
	return out
}

// runGuidelines runs one checked harness pass: it fails on an error, on
// any violation, or on a check count other than the reference.
func (b *bench) runGuidelines(ctx context.Context, kind string, h guideline.Harness) (time.Duration, *guideline.Report) {
	settle()
	t0 := time.Now()
	rep, err := h.Run(ctx)
	d := time.Since(t0)
	digest := ""
	if err == nil {
		digest = fmt.Sprintf("checks=%d violations=%d", len(rep.Checks), len(rep.Violations()))
		if n := len(rep.Violations()); n > 0 {
			err = fmt.Errorf("%s: %d guideline violations (first: %s at %s P=%d m=%d)", kind, n,
				rep.Violations()[0].Guideline, rep.Violations()[0].Platform, rep.Violations()[0].Procs, rep.Violations()[0].MsgBytes)
		}
	}
	b.verify(kind, err, digest)
	return d, rep
}
