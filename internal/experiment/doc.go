// Package experiment implements the measurement layer of the
// reproduction: the paper's statistical methodology for timing a single
// collective invocation (§5.1), the specific communication experiments
// the parameter estimation needs (§4.1, §4.2), and a parallel sweep
// engine that fans whole measurement grids out over a worker pool with
// content-addressed result caching.
//
// # Measurement methodology (paper §5.1)
//
// Measure is modelled on MPIBlib: a collective operation is executed
// repeatedly inside a single MPI program, repetitions separated by
// barriers, until the 95% Student-t confidence interval of the sample
// mean is within 2.5% of the mean (Settings makes both knobs
// adjustable). Normality (Jarque-Bera) and independence (lag-1
// autocorrelation) diagnostics are recorded alongside every measurement.
//
// Two timing modes are provided:
//
//   - RootTime measures the duration observed by the root between the
//     start of the operation and its local completion. The paper's
//     α/β-estimation experiments (§4.2) are designed to "start and finish
//     on the root" (broadcast followed by a gather), so this mode measures
//     them without any global clock.
//   - Completion measures the time until every rank has finished, by
//     closing each repetition with a barrier whose (deterministically
//     calibrated) cost is subtracted. The γ(P) experiments (§4.1) and the
//     algorithm-comparison curves use this mode; subtracting the barrier
//     is a small refinement over the paper's T1(P,N)/N description that
//     keeps barrier cost out of the γ estimate.
//
// # Measurement points
//
// Everything the reproduction measures is a Point: a Stage (the
// operation every rank runs, its timing Mode and whether it is
// timing-independent) at a communicator size, message size and segment
// size. The paper's
// experiments are Stage values: BcastStage times one (algorithm, P, m,
// segment) broadcast in Completion mode — one point of the comparison
// figures, and with the linear algorithm at one unsegmented segment the
// §4.1 γ(P) experiment — and BcastThenGatherStage is the §4.2 estimation
// experiment (the modelled broadcast followed by a small linear gather,
// timed on the root). The extended-collective calibrations and the
// ping-pong baseline build their own stages.
//
// # Sweep engine
//
// Every evaluation in the paper walks a grid — algorithms × communicator
// sizes × message sizes — and each grid point is an independent,
// deterministic simulation. Sweep is the one measurement orchestrator:
// Run measures a []Point grid over a bounded worker pool (Workers,
// default GOMAXPROCS) and returns results in grid order regardless of
// completion order, so callers are oblivious to the concurrency. Each
// worker's simulator is reset between points, which makes the results
// bit-identical to a serial run on fresh simulators; the first failing
// point cancels the rest through the context. Points whose stage is
// timing-independent are compiled into plans goroutine-free, with no
// scheduler run. Measure and MeasureOn remain for callers that time an
// arbitrary Op outside a grid; they compile the same way and add a
// verify pass, a second compile that must yield the same plan.
//
// Cache adds content-addressed memoisation on top: keys hash the full
// experiment identity (cluster profile including the noise seed, the
// normalised Settings, and the point), in memory via NewCache or spilled
// to a directory of JSON files via NewDiskCache, so repeated pipeline
// stages — calibrate then decisiontable over the same grid — skip
// already-measured points. The Progress hook reports per-point
// completion for CLI front-ends.
package experiment
