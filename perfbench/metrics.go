package main

// metricDef is one metric of the catalogue BENCHMARK.json mirrors. Moves
// says which end-to-end metric a per-layer metric should move, and on
// which workload; the report prints it next to every value.
type metricDef struct {
	Name, Unit, Better string
	Moves              string
}

// Workload names (see README.md for why each exists).
const (
	wlCalibrate = "calibrate_bcast"
	wlSelect    = "select_serve"
)

var workloadNames = []string{wlCalibrate, wlSelect}

// endToEnd are the costs a user pays. Every run reports all of them: the
// measured interval interleaves every operation, the workload's own one
// twice as often (see mix), so a change to one layer shows on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of three set-ups of the workload"},
	{"calibrate_cold_s", "s", "lower", "Calibrate(ctx, grisou) into an empty measurement cache"},
	{"calibrate_warm_ms", "ms", "lower", "the same Calibrate against a filled measurement cache"},
	{"calibrate_extended_s", "s", "lower", "CalibrateExtendedOp for all seven families"},
	{"verify_guidelines_s", "s", "lower", "guideline.Harness.Run on the default grid (2808 checks)"},
	{"select_p50_us", "us", "lower", "POST /v1/select, open loop, from due time"},
	{"select_p90_us", "us", "lower", "POST /v1/select, open loop, from due time"},
	{"select_p99_us", "us", "lower", "POST /v1/select, open loop, from due time"},
	{"select_qps", "1/s", "higher", "POST /v1/select, closed loop on 2 connections"},
}

const (
	onCold   = "calibrate_cold_s on calibrate_bcast"
	onWarm   = "calibrate_warm_ms on calibrate_bcast"
	onExt    = "calibrate_extended_s on every workload"
	onGuide  = "verify_guidelines_s on every workload"
	onSelect = "select_p50_us, select_qps on select_serve"
	onAll    = "every end-to-end metric on every workload"
)

// perLayer are the numbers of single layers, reported by --trace 1 runs.
var perLayer = []metricDef{
	{"simnet.transmit_ns", "ns", "lower", "calibrate_cold_s on calibrate_bcast (scheduler path)"},
	{"simnet.transmit_perturbed_ns", "ns", "lower", onGuide + " (perturbed platforms)"},
	{"simnet.ports_transmit_ns", "ns", "lower", "calibrate_cold_s, calibrate_extended_s (replay path)"},

	{"mpi.sched_point_ms", "ms", "lower", "verify_guidelines_s (brownout fallbacks); every capture"},
	{"mpi.capture_point_ms", "ms", "lower", onCold + " (57 of 66 points); " + onExt},
	{"mpi.rebind_point_ms", "ms", "lower", onCold + " (9 of 66 points only)"},
	{"mpi.captures", "count", "lower", onCold},
	{"mpi.rebinds", "count", "higher", onCold},
	{"mpi.reps_replay", "count", "lower", onCold},
	{"mpi.reps_scheduler", "count", "lower", onCold},
	{"mpi.sched_transfers", "count", "lower", onCold},
	{"mpi.replay_transfers", "count", "lower", onCold},
	{"mpi.plan_events", "count", "lower", onCold},
	{"mpi.sched_ns_per_transfer", "ns", "lower", onCold + "; " + onGuide},
	{"mpi.replay_ns_per_transfer", "ns", "lower", onCold + "; " + onExt},

	{"experiment.sweep_s", "s", "lower", onCold},
	{"experiment.points_measured", "count", "lower", onCold},
	{"experiment.point_ms", "ms", "lower", onCold},
	{"experiment.parallel_efficiency", "ratio", "higher", onCold},
	{"experiment.fallbacks", "count", "lower", onCold},
	{"experiment.capture_dedup", "count", "higher", onCold},
	{"experiment.singleflight_wait_ms", "ms", "lower", onCold},
	{"experiment.cache_hit_us", "us", "lower", onWarm},
	{"experiment.measure_point_ms", "ms", "lower", onExt},

	{"estimate.fit_ms", "ms", "lower", "calibrate_cold_s only by its ~0.2 ms share of ~1 s: a fit speed-up cannot move it"},
	{"estimate.extended.allgather_s", "s", "lower", onExt},
	{"estimate.extended.allreduce_s", "s", "lower", onExt},
	{"estimate.extended.alltoall_s", "s", "lower", onExt},
	{"estimate.extended.gather_s", "s", "lower", onExt},
	{"estimate.extended.reduce_s", "s", "lower", onExt},
	{"estimate.extended.reduce_scatter_s", "s", "lower", onExt},
	{"estimate.extended.scatter_s", "s", "lower", onExt},

	{"guideline.checks", "count", "higher", onGuide},
	{"guideline.violations", "count", "lower", onGuide},
	{"guideline.quiet_s", "s", "lower", onGuide},
	{"guideline.perturbed_s", "s", "lower", onGuide},
	{"guideline.fit_s", "s", "lower", onGuide},

	{"core.bestfor_ns", "ns", "lower", onSelect},
	{"core.bestfor_allocs", "count", "lower", onSelect},

	{"wire.parse_ns", "ns", "lower", "select_qps on select_serve"},
	{"wire.encode_ns", "ns", "lower", "select_qps on select_serve"},

	{"serve.handler_us", "us", "lower", "select_p50_us on select_serve (the handler is a few % of loopback latency)"},
	{"serve.handler_allocs", "count", "lower", onSelect},
	{"serve.job_s", "s", "lower", "setup_s on select_serve"},
	{"serve.store_put_ms", "ms", "lower", "setup_s on select_serve"},
	{"serve.store_get_ms", "ms", "lower", "select_p99_us on select_serve (cold profile load)"},
	{"serve.errors", "count", "lower", onSelect},
	{"serve.generator_late_us", "us", "lower", "none: load-generator health for select_p50_us"},

	{"proc.cpu_s", "s", "lower", onAll},
	{"proc.alloc_mb", "MB", "lower", onAll},
	{"proc.gc_cycles", "count", "lower", onAll},
	{"proc.heap_peak_mb", "MB", "lower", onAll + " (memory traded for speed)"},

	{"trace.overhead_ms", "ms", "lower", "none: tracing cost of the workload's operation"},
	{"trace.spans", "count", "lower", "none: size of the trace file"},
	{"self.simnet_ms", "ms", "lower", "self time of simnet spans"},
	{"self.mpi_ms", "ms", "lower", "self time of mpi engine spans"},
	{"self.experiment_ms", "ms", "lower", "self time of experiment spans"},
	{"self.estimate_ms", "ms", "lower", "self time of estimate spans"},
	{"self.guideline_ms", "ms", "lower", "self time of guideline spans"},
	{"self.core_ms", "ms", "lower", "self time of core spans (sweep orchestration + fits under Calibrate)"},
	{"self.serve_ms", "ms", "lower", "self time of serve spans"},
	{"self.wire_ms", "ms", "lower", "self time of wire spans"},
}

// recordOnly metrics are reported and recorded but left out of the
// summary line and BENCHMARK.json, because no bound could hold them:
//   - select_p99_us: the 2-core VM the benchmark was built on stalls a
//     thread for 1–7 ms a few times a second, and the p99 of a round is
//     whether a stall hit it (runs of the same code read 450–800 µs);
//     select_p90_us, below the stalls, is the bounded tail;
//   - experiment.singleflight_wait_ms: on two cores the class leaders
//     are drained before any worker can wait on a capture, so it reads
//     exactly 0 ms on every run;
//   - calibrate_warm_ms: a warm calibration takes ~0.3 ms, and its
//     median over 25 or more batches of 50 per run spread 13–26 %
//     (interquartile range over median) across ten runs of the same
//     code, too close to the 0.25 bound to hold it.
var recordOnly = map[string]bool{"select_p99_us": true, "experiment.singleflight_wait_ms": true, "calibrate_warm_ms": true}

// bounds are the end-to-end regression bounds BENCHMARK.json fixes, as a
// share of the parent's median.
var bounds = map[string]float64{
	"setup_s":              0.25,
	"calibrate_cold_s":     0.25,
	"calibrate_warm_ms":    0.25,
	"calibrate_extended_s": 0.25,
	"verify_guidelines_s":  0.25,
	"select_p50_us":        0.25,
	"select_p90_us":        0.25,
	"select_p99_us":        0.25,
	"select_qps":           0.25,
}
