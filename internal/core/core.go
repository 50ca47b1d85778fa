// Package core ties the reproduction together into the library's
// user-facing workflow, mirroring how the paper intends its method to be
// deployed inside an MPI library:
//
//  1. Calibrate once per platform (offline): estimate γ(P) from
//     non-blocking linear broadcast experiments and per-algorithm α/β from
//     broadcast+gather experiments (§4).
//  2. Select at run time (online): for each MPI_Bcast call, evaluate six
//     closed-form models and take the argmin — a few hundred nanoseconds,
//     as cheap as Open MPI's hard-coded decision function but adaptive to
//     the platform.
//
// Calibrations can be persisted to JSON and reloaded, so the expensive
// offline phase runs once per cluster.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/selection"
)

// Daemon-facing sentinel errors: long-running servers map failures to
// HTTP status codes with errors.Is instead of string matching, so the
// distinctions the handlers need are pinned here. Returners wrap them
// with context (fmt.Errorf("...: %w", ...)).
var (
	// ErrNotCalibrated reports a selection query against a (profile,
	// collective) pair that has no fitted models yet — the caller should
	// calibrate first (or wait for a calibration job to finish).
	ErrNotCalibrated = errors.New("not calibrated")
	// ErrUnknownProfile reports a query referencing a platform profile
	// this process does not know.
	ErrUnknownProfile = errors.New("unknown profile")
)

// Selector is a calibrated run-time algorithm selector for one platform.
type Selector struct {
	// Profile is the platform the selector was calibrated on.
	Profile cluster.Profile
	// Models holds γ and the per-algorithm Hockney parameters.
	Models model.BcastModels
	// GammaDetail keeps the raw γ estimation diagnostics.
	GammaDetail estimate.GammaResult
	// Extended holds per-family extended-collective selectors keyed by
	// family name ("allgather", "reduce", ...), populated by
	// CalibrateExtendedOp. BestFor consults it for every non-broadcast
	// collective; nil or missing entries report ErrNotCalibrated.
	Extended map[string]*selection.ExtendedSelector
}

// Calibrate runs the full offline estimation pipeline (§4) on the profile
// and returns a ready selector. cfg.Settings defaults to the paper's
// methodology; cfg.Procs defaults to half the platform.
func Calibrate(pr cluster.Profile, cfg estimate.AlphaBetaConfig) (*Selector, error) {
	return CalibrateCtx(context.Background(), pr, cfg)
}

// CalibrateCtx is Calibrate with cancellation: a cancelled ctx stops the
// calibration sweep promptly.
func CalibrateCtx(ctx context.Context, pr cluster.Profile, cfg estimate.AlphaBetaConfig) (*Selector, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	bm, gr, err := estimate.ModelsCtx(ctx, pr, cfg)
	if err != nil {
		return nil, err
	}
	return &Selector{Profile: pr, Models: bm, GammaDetail: gr}, nil
}

// Best returns the algorithm with the minimal predicted broadcast time for
// m bytes over P processes (the run-time decision function).
func (s *Selector) Best(P, m int) (selection.Choice, error) {
	return selection.ModelBased{Models: s.Models}.Select(P, m)
}

// OpBcast is the collective-family name of the broadcast models every
// Selector carries; the extended families take their names from
// estimate.AllSpecFamilies.
const OpBcast = "bcast"

// OpChoice is a collective-agnostic selection result: the winning
// algorithm of one collective family for (P, m), in the query shape the
// daemon's wire API and the library facade share.
type OpChoice struct {
	// Op is the collective family the query was about ("bcast",
	// "allgather", ...).
	Op string
	// Algorithm names the winning algorithm, family-qualified
	// ("bcast/binomial", "allgather/ring").
	Algorithm string
	// SegSize is the segment size the algorithm should run with
	// (0 = unsegmented).
	SegSize int
	// Predicted is the winning algorithm's modelled time in seconds.
	Predicted float64
}

// bcastAlgs and bcastOpNames are hoisted so BestFor allocates nothing:
// the run-time decision sits on the daemon's hot select path.
var (
	bcastAlgs    = coll.BcastAlgorithms()
	bcastOpNames = func() []string {
		names := make([]string, len(bcastAlgs))
		for i, alg := range bcastAlgs {
			names[i] = OpBcast + "/" + alg.String()
		}
		return names
	}()
)

// BestFor generalises Best across collective families: op selects the
// family ("" or "bcast" for the broadcast models; any calibrated extended
// family otherwise), and the result carries the family-qualified winner
// plus its predicted time. Querying a family with no fitted models
// reports ErrNotCalibrated. BestFor performs no allocation on the happy
// path — it is the daemon's hot selection primitive.
func (s *Selector) BestFor(op string, P, m int) (OpChoice, error) {
	if op == "" || op == OpBcast {
		best, bestT := -1, 0.0
		for i, alg := range bcastAlgs {
			t, err := s.Models.Predict(alg, P, m)
			if err != nil {
				continue
			}
			if best < 0 || t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			return OpChoice{}, fmt.Errorf("core: no broadcast models on %s: %w", s.Models.Cluster, ErrNotCalibrated)
		}
		return OpChoice{Op: OpBcast, Algorithm: bcastOpNames[best], SegSize: s.Models.SegSize, Predicted: bestT}, nil
	}
	es := s.Extended[op]
	if es == nil || len(es.Specs) == 0 {
		return OpChoice{}, fmt.Errorf("core: collective %q on %s: %w", op, s.Models.Cluster, ErrNotCalibrated)
	}
	i, name := es.Best(P, m)
	return OpChoice{Op: op, Algorithm: name, SegSize: es.SegSize, Predicted: es.Predict(i, P, m)}, nil
}

// CalibrateExtendedOp fits the named extended collective family ("gather",
// "allreduce", ... — see estimate.AllSpecFamilies) on the selector's
// platform, reusing the already-estimated γ, and attaches the result so
// BestFor can answer queries for it. It is CalibrateExtendedOps for one
// family.
func (s *Selector) CalibrateExtendedOp(ctx context.Context, op string, cfg estimate.AlphaBetaConfig) error {
	return s.CalibrateExtendedOps(ctx, []string{op}, cfg)
}

// CalibrateExtendedOps fits the named extended collective families on the
// selector's platform, reusing the already-estimated γ, and attaches one
// selector per family so BestFor can answer queries for them. All the
// families' specs are measured as one sweep (estimate.AlphaBetaFamily)
// under cfg's Workers, Cache, Progress and Metrics, and the fits are
// split per family: each is bit-identical to the family's own
// CalibrateExtendedOp. A cancelled ctx stops the sweep within one chunk
// of grid points, leaving the selector unchanged.
func (s *Selector) CalibrateExtendedOps(ctx context.Context, ops []string, cfg estimate.AlphaBetaConfig) error {
	if len(ops) == 0 {
		return nil
	}
	all := estimate.AllSpecFamilies()
	fams := make([][]estimate.CollectiveSpec, len(ops))
	for i, op := range ops {
		specs, ok := all[op]
		if !ok {
			return fmt.Errorf("core: unknown collective family %q", op)
		}
		fams[i] = specs
	}
	sels, _, err := selection.CalibrateExtendedFamilies(ctx, s.Profile, fams, s.Models.Gamma, cfg)
	if err != nil {
		return fmt.Errorf("core: calibrating %s: %w", strings.Join(ops, ", "), err)
	}
	if s.Extended == nil {
		s.Extended = make(map[string]*selection.ExtendedSelector)
	}
	for i, op := range ops {
		s.Extended[op] = sels[i]
	}
	return nil
}

// Predict returns the modelled time of one algorithm.
func (s *Selector) Predict(alg coll.BcastAlgorithm, P, m int) (float64, error) {
	return s.Models.Predict(alg, P, m)
}

// PredictAll returns every algorithm's predicted time.
func (s *Selector) PredictAll(P, m int) map[coll.BcastAlgorithm]float64 {
	return selection.ModelBased{Models: s.Models}.PredictAll(P, m)
}

// MeasureBcast runs the algorithm on the simulated platform and returns
// its measured mean execution time — the "ground truth" the models are
// judged against.
func (s *Selector) MeasureBcast(alg coll.BcastAlgorithm, P, m int, set experiment.Settings) (float64, error) {
	res, err := experiment.Sweep{Profile: s.Profile, Settings: set}.Run(context.Background(), []experiment.Point{
		{Stage: experiment.BcastStage(alg), Procs: P, MsgBytes: m, SegSize: s.Profile.SegmentSize},
	})
	if err != nil {
		return 0, err
	}
	return res[0].Meas.Mean, nil
}

// CalibrationSchemaVersion is the current calibration file schema
// version. Bump it when the schema changes incompatibly; LoadModels
// rejects files carrying any other version (including files from before
// versioning, which parse as version 0) with an
// *UnsupportedVersionError. The daemon's content-addressed store keys
// its files by profile digest plus this version, so a schema bump makes
// old cache entries invisible instead of unreadable.
const CalibrationSchemaVersion = 1

// UnsupportedVersionError reports a calibration file whose schema version
// this build does not understand — newer than this library, or predating
// schema versioning entirely.
type UnsupportedVersionError struct {
	// Path is the file that was rejected.
	Path string
	// Version is the version the file declared (0 when absent).
	Version int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("core: calibration %s has unsupported schema version %d (supported: %d); recalibrate with this library version",
		e.Path, e.Version, CalibrationSchemaVersion)
}

// calibrationFile is the JSON persistence schema. Algorithm keys are
// stored by name so the file is stable across enum reorderings.
type calibrationFile struct {
	Version  int                `json:"version"`
	Cluster  string             `json:"cluster"`
	SegSize  int                `json:"segment_size"`
	GammaTab map[string]float64 `json:"gamma"` // "P" -> γ(P)
	GammaFit struct {
		Intercept float64 `json:"intercept"`
		Slope     float64 `json:"slope"`
	} `json:"gamma_fit"`
	Params map[string]struct {
		Alpha float64 `json:"alpha"`
		Beta  float64 `json:"beta"`
	} `json:"params"`
}

// SaveModels writes the calibrated models to a JSON file, atomically: a
// concurrent reader sees the old file or the new one.
func (s *Selector) SaveModels(path string) error {
	var f calibrationFile
	f.Version = CalibrationSchemaVersion
	f.Cluster = s.Models.Cluster
	f.SegSize = s.Models.SegSize
	f.GammaTab = make(map[string]float64, len(s.Models.Gamma.Table))
	for p, g := range s.Models.Gamma.Table {
		f.GammaTab[fmt.Sprint(p)] = g
	}
	f.GammaFit.Intercept = s.Models.Gamma.Fit.Intercept
	f.GammaFit.Slope = s.Models.Gamma.Fit.Slope
	f.Params = make(map[string]struct {
		Alpha float64 `json:"alpha"`
		Beta  float64 `json:"beta"`
	}, len(s.Models.Params))
	for alg, par := range s.Models.Params {
		f.Params[alg.String()] = struct {
			Alpha float64 `json:"alpha"`
			Beta  float64 `json:"beta"`
		}{par.Alpha, par.Beta}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic writes data to a temporary file in path's directory,
// syncs it and renames it over path, so a concurrent reader or a crash
// sees the old file or the new one, never a partial write. The temporary
// file is removed on any error.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// LoadModels reads a calibration JSON and attaches it to the profile,
// returning a selector that skips the offline phase.
func LoadModels(pr cluster.Profile, path string) (*Selector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		// Keep the underlying error in the chain: a missing file must stay
		// distinguishable (errors.Is(err, fs.ErrNotExist)) from a corrupt
		// one, so a calibration store can answer "not yet calibrated"
		// instead of surfacing an opaque failure.
		return nil, fmt.Errorf("core: loading calibration %s: %w", path, err)
	}
	var f calibrationFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	if f.Version != CalibrationSchemaVersion {
		return nil, &UnsupportedVersionError{Path: path, Version: f.Version}
	}
	if f.Cluster != pr.Name {
		return nil, fmt.Errorf("core: calibration is for %q, profile is %q", f.Cluster, pr.Name)
	}
	table := make(map[int]float64, len(f.GammaTab))
	for k, v := range f.GammaTab {
		var p int
		if _, err := fmt.Sscanf(k, "%d", &p); err != nil {
			return nil, fmt.Errorf("core: bad gamma key %q", k)
		}
		table[p] = v
	}
	g, err := model.NewGamma(table)
	if err != nil {
		return nil, err
	}
	bm := model.BcastModels{
		Cluster: f.Cluster,
		SegSize: f.SegSize,
		Gamma:   g,
		Params:  make(map[coll.BcastAlgorithm]model.Hockney, len(f.Params)),
	}
	for name, par := range f.Params {
		alg, err := coll.ParseBcastAlgorithm(name)
		if err != nil {
			return nil, err
		}
		bm.Params[alg] = model.Hockney{Alpha: par.Alpha, Beta: par.Beta}
	}
	if len(bm.Params) == 0 {
		return nil, fmt.Errorf("core: calibration %s has no algorithm parameters", path)
	}
	return &Selector{Profile: pr, Models: bm}, nil
}
