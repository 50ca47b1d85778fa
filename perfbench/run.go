package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mpicollperf"
)

const (
	// setupRepeats is how many times a run sets its workload up; setup_s
	// is their median.
	setupRepeats = 3
	// minOpsPerRun is the fewest units of every operation a run makes,
	// whatever --seconds says, so no end-to-end median rests on fewer
	// samples.
	minOpsPerRun = 4
	// warmBatch is how many warm calibrations one calibrate_warm_ms
	// sample averages; every unit of any operation is followed by one
	// batch.
	warmBatch = 50
	// selectRoundsPerUnit is how many select rounds one unit runs.
	selectRoundsPerUnit = 4
)

// Operations: every run times all four, so every run reports every
// end-to-end metric.
const (
	opCalibrate  = "calibrate"
	opExtended   = "extended"
	opGuidelines = "guidelines"
	opSelect     = "select"
)

var opNames = []string{opCalibrate, opExtended, opGuidelines, opSelect}

// mix is how many units of each operation one cycle of a workload's
// measured interval makes: the workload's own operation gets two.
var mix = map[string]map[string]int{
	wlCalibrate: {opCalibrate: 2, opExtended: 1, opGuidelines: 1, opSelect: 1},
	wlSelect:    {opCalibrate: 1, opExtended: 1, opGuidelines: 1, opSelect: 2},
}

// value is one reported metric with the number of samples behind it
// and their within-run spread (see relativeSpread).
type value struct {
	V      float64
	Unit   string
	N      int
	Spread float64
}

// state is what the operations of a run need: a filled measurement cache
// for the warm calibrations, γ for the extended passes and a calibrated
// daemon for the selects.
type state struct {
	cache *mpicollperf.MeasurementCache
	gamma mpicollperf.Gamma
	sel   *selectState
}

func (s *state) close() {
	if s != nil && s.sel != nil {
		s.sel.close()
	}
}

// prepare performs one set-up of a workload: the cold calibration that
// fills the cache, or the daemon's boot and calibration job.
func (b *bench) prepare(ctx context.Context, workload string) (*state, error) {
	st := &state{}
	var err error
	switch workload {
	case wlCalibrate:
		_, st.cache = b.coldCalibrate(ctx)
	case wlSelect:
		st.sel, err = b.prepareSelect(ctx)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	return st, err
}

// complete fills in, untimed, what the workload's set-up left out of st,
// and warms the guideline path up so that pools, templates and lazily
// built tables exist before its first timed run.
func (b *bench) complete(ctx context.Context, st *state) error {
	if st.cache == nil {
		_, st.cache = b.coldCalibrate(ctx)
	}
	var err error
	if st.gamma, err = b.gamma(ctx, mpicollperf.WithCache(st.cache)); err != nil {
		return err
	}
	if st.sel == nil {
		if st.sel, err = b.prepareSelect(ctx); err != nil {
			return err
		}
	}
	b.runGuidelines(ctx, chkQuick, b.harness(true, nil))
	return nil
}

// setup runs the workload's set-up setupRepeats times, keeps the last
// state and returns every set-up's duration.
func (b *bench) setup(ctx context.Context) (*state, []float64, error) {
	var st *state
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		st.close()
		settle()
		t0 := time.Now()
		next, err := b.prepare(ctx, b.cfg.workload)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		st = next
	}
	return st, times, nil
}

// unit runs one unit of an operation on st and records its samples: a
// cold calibration, an extended pass, a guideline run, or
// selectRoundsPerUnit select rounds.
func (b *bench) unit(ctx context.Context, op string, st *state) {
	switch op {
	case opCalibrate:
		d, _ := b.coldCalibrate(ctx)
		b.add("calibrate_cold_s", d.Seconds())
	case opExtended:
		d, _ := b.extendedPass(ctx, st.gamma, 0, 0)
		b.add("calibrate_extended_s", d.Seconds())
	case opGuidelines:
		d, _ := b.runGuidelines(ctx, chkGuidelines, b.harness(false, nil))
		b.add("verify_guidelines_s", d.Seconds())
	case opSelect:
		b.selectRounds(ctx, st.sel, selectRoundsPerUnit)
	}
}

// nextOp returns the operation furthest below its share of weights
// (count ÷ weight); ties go to the earliest in opNames.
func nextOp(counts, weights map[string]int) string {
	next := opNames[0]
	for _, op := range opNames {
		if counts[op]*weights[next] < counts[next]*weights[op] {
			next = op
		}
	}
	return next
}

// measure runs units of the workload's mix, each the operation nextOp
// picks and each followed by a batch of warm calibrations, until dur has
// passed and every operation has run minOpsPerRun units. Interleaving
// spreads every metric's samples over the whole run, so the host's drift
// during a run reaches them all alike.
func (b *bench) measure(ctx context.Context, st *state, dur time.Duration) error {
	if err := b.complete(ctx, st); err != nil {
		return err
	}
	minOps := minOpsPerRun
	if b.cfg.tiny {
		minOps = 1
	}
	weights := mix[b.cfg.workload]
	counts := map[string]int{}
	deadline := time.Now().Add(dur)
	for ctx.Err() == nil {
		done := time.Now().After(deadline)
		for _, op := range opNames {
			done = done && counts[op] >= minOps
		}
		if done {
			return nil
		}
		op := nextOp(counts, weights)
		b.unit(ctx, op, st)
		counts[op]++
		b.add("calibrate_warm_ms", b.warmBatch(ctx, st.cache, warmBatch).Seconds()*1e3)
	}
	return ctx.Err()
}

// runEndToEnd is the untraced run: set-up, then the measured interval.
func (b *bench) runEndToEnd(ctx context.Context) (map[string]value, error) {
	st, setups, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	err = b.measure(ctx, st, time.Duration(b.cfg.seconds*float64(time.Second)))
	st.close()
	if err != nil {
		return nil, err
	}

	out := map[string]value{}
	med := func(name string, xs []float64, scale float64, unit string) {
		spread, _ := relativeSpread(xs)
		out[name] = value{median(xs) * scale, unit, len(xs), spread}
	}
	med("setup_s", setups, 1, "s")
	med("calibrate_cold_s", b.samples["calibrate_cold_s"], 1, "s")
	med("calibrate_warm_ms", b.samples["calibrate_warm_ms"], 1, "ms")
	med("calibrate_extended_s", b.samples["calibrate_extended_s"], 1, "s")
	med("verify_guidelines_s", b.samples["verify_guidelines_s"], 1, "s")
	med("select_p50_us", b.samples["select_latency"], 1e6, "us")
	med("select_qps", b.samples["select_qps"], 1, "1/s")
	med("select_p90_us", b.samples["select_p90"], 1e6, "us")
	med("select_p99_us", b.samples["select_p99"], 1e6, "us")
	for _, kind := range []string{chkCalibration, chkExtended, chkGuidelines} {
		b.notes = append(b.notes, fmt.Sprintf("%s digest: %s", kind, b.refs[kind]))
	}
	late := b.samples["select_late"]
	b.notes = append(b.notes, fmt.Sprintf("open-loop generator lateness: median %.1f us, max %.1f us over %d requests",
		median(late)*1e6, maxOf(late)*1e6, len(late)))
	return out, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
