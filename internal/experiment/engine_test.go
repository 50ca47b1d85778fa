package experiment

import (
	"fmt"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/simnet"
)

// sameMeasurement fails the test unless two measurements are bit-identical
// in every field, sample by sample.
func sameMeasurement(t *testing.T, label string, a, b Measurement) {
	t.Helper()
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("%s: %d vs %d samples", label, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("%s: sample %d: %x vs %x", label, i, a.Samples[i], b.Samples[i])
		}
	}
	if a.Mean != b.Mean || a.CI != b.CI || a.Reps != b.Reps || a.Converged != b.Converged ||
		a.NormalityP != b.NormalityP || a.Lag1 != b.Lag1 {
		t.Fatalf("%s: measurements differ\n%+v\n%+v", label, a, b)
	}
}

// TestEngineReplayBitIdentical is the engine contract at full strength:
// every broadcast algorithm, measured on the noisy Grisou profile with the
// replay engine forced (no fallback allowed), must reproduce the
// scheduler engine's measurement bit for bit.
func TestEngineReplayBitIdentical(t *testing.T) {
	pr := cluster.Grisou()
	for _, alg := range coll.BcastAlgorithms() {
		ms, err := measureOne(pr, bcastPoint(alg, 16, 65536, 8192), Settings{Engine: EngineScheduler})
		if err != nil {
			t.Fatal(err)
		}
		mr, err := measureOne(pr, bcastPoint(alg, 16, 65536, 8192), Settings{Engine: EngineReplay})
		if err != nil {
			t.Fatalf("%v: replay: %v", alg, err)
		}
		sameMeasurement(t, alg.String(), ms, mr)
	}
}

// TestEngineAutoFallsBackOnPayload: programs that move real payload bytes
// cannot be replayed from a plan, so auto must quietly run them on the
// scheduler — bit-identically — and the forced replay engine must refuse.
func TestEngineAutoFallsBackOnPayload(t *testing.T) {
	data := []byte("payload-bytes-for-engine-test")
	op := func(p *mpi.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, data, -1)
		} else {
			buf := make([]byte, len(data))
			p.Recv(0, 0, buf)
		}
	}
	run := func(e Engine) (Measurement, error) {
		net, err := simnet.New(noisyConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		set := fastSettings()
		set.Engine = e
		return Measure(net, 2, set, Completion, op)
	}
	ms, err := run(EngineScheduler)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := run(EngineAuto)
	if err != nil {
		t.Fatalf("auto engine failed on payload program: %v", err)
	}
	sameMeasurement(t, "payload fallback", ms, ma)
	if ms.Fallback != FallbackNone {
		t.Fatalf("scheduler engine reported fallback %q", ms.Fallback)
	}
	if ma.Fallback != FallbackPayload {
		t.Fatalf("auto engine reported fallback %q, want %q", ma.Fallback, FallbackPayload)
	}
	if _, err := run(EngineReplay); err == nil {
		t.Fatal("forced replay engine accepted a payload-carrying program")
	}
}

// TestEngineAutoFallsBackOnStructuralChange: a program whose operation
// stream differs between invocations, or depends on a received size,
// must be caught by the verify pass — auto falls back to the scheduler
// (bit-identically, for a program that is the same on every
// invocation), forced replay errors.
func TestEngineAutoFallsBackOnStructuralChange(t *testing.T) {
	ops := map[string]func() Op{
		// A sleep that appears from the second invocation on.
		"changing": func() Op {
			var calls [3]int
			return func(p *mpi.Proc) {
				r := p.Rank()
				calls[r]++
				if calls[r] > 1 && r == 0 {
					p.Sleep(1e-6)
				}
				if r == 0 {
					p.Send(1, 0, nil, 4096)
				} else if r == 1 {
					p.Recv(0, 0, nil)
				}
			}
		},
		// Rank 1 forwards what it received: the first compile pass reads
		// 0 bytes, the verify pass the real size.
		"forwarding": func() Op {
			return func(p *mpi.Proc) {
				switch p.Rank() {
				case 0:
					p.Send(1, 0, nil, 4096)
				case 1:
					p.Send(2, 0, nil, p.Recv(0, 0, nil))
				case 2:
					p.Recv(1, 0, nil)
				}
			}
		},
	}
	for name, newOp := range ops {
		run := func(e Engine) (Measurement, error) {
			net, err := simnet.New(noisyConfig(3))
			if err != nil {
				t.Fatal(err)
			}
			set := fastSettings()
			set.Engine = e
			return Measure(net, 3, set, Completion, newOp())
		}
		ma, err := run(EngineAuto)
		if err != nil {
			t.Fatalf("%s: auto engine failed to fall back: %v", name, err)
		}
		if ma.Fallback != FallbackEchoDivergence {
			t.Fatalf("%s: auto engine reported fallback %q, want %q", name, ma.Fallback, FallbackEchoDivergence)
		}
		if name == "forwarding" {
			ms, err := run(EngineScheduler)
			if err != nil {
				t.Fatal(err)
			}
			sameMeasurement(t, name, ms, ma)
		}
		if _, err := run(EngineReplay); err == nil {
			t.Fatalf("%s: forced replay engine accepted a structure-changing program", name)
		}
	}
}

// TestEngineAutoFallsBackOnMarkInOp: an op that calls Mark itself breaks
// the harness's mark bracketing; auto must fall back, bit-identically,
// whether or not the op is declared timing-independent.
func TestEngineAutoFallsBackOnMarkInOp(t *testing.T) {
	op := func(p *mpi.Proc) {
		p.Mark()
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 4096)
		} else {
			p.Recv(0, 0, nil)
		}
	}
	for _, declared := range []bool{false, true} {
		run := func(e Engine) (Measurement, error) {
			net, err := simnet.New(noisyConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			set := fastSettings()
			set.Engine = e
			return measureOnEngine(mpi.NewRunnerOn(net, mpi.Options{}), 2, set, Completion, op, declared)
		}
		label := fmt.Sprintf("mark fallback (declared=%v)", declared)
		ms, err := run(EngineScheduler)
		if err != nil {
			t.Fatal(err)
		}
		ma, err := run(EngineAuto)
		if err != nil {
			t.Fatalf("%s: auto engine failed on mark-calling op: %v", label, err)
		}
		sameMeasurement(t, label, ms, ma)
		if ma.Fallback != FallbackMarkInOp {
			t.Fatalf("%s: auto engine reported fallback %q, want %q", label, ma.Fallback, FallbackMarkInOp)
		}
		if _, err := run(EngineReplay); err == nil {
			t.Fatalf("%s: forced replay engine accepted a mark-calling op", label)
		}
	}
}

// TestEngineFallsBackOnTimeVaryingPerturbation: a brownout makes the
// effective link parameters depend on virtual time, so a compiled plan
// cannot be re-timed. Auto must fall back (before even compiling) with
// the reason surfaced, bit-identically; forced replay must refuse.
func TestEngineFallsBackOnTimeVaryingPerturbation(t *testing.T) {
	spec, err := perturb.Parse("brownout:src=0,dst=1,start=0,end=1,bw=25")
	if err != nil {
		t.Fatal(err)
	}
	op := func(p *mpi.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 4096)
		} else {
			p.Recv(0, 0, nil)
		}
	}
	run := func(e Engine) (Measurement, error) {
		cfg := noisyConfig(2)
		cfg.Perturb = spec
		net, err := simnet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		set := fastSettings()
		set.Engine = e
		return Measure(net, 2, set, Completion, op)
	}
	ms, err := run(EngineScheduler)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := run(EngineAuto)
	if err != nil {
		t.Fatalf("auto engine failed under brownout: %v", err)
	}
	sameMeasurement(t, "brownout fallback", ms, ma)
	if ma.Fallback != FallbackTimeVarying {
		t.Fatalf("auto engine reported fallback %q, want %q", ma.Fallback, FallbackTimeVarying)
	}
	if _, err := run(EngineReplay); err == nil {
		t.Fatal("forced replay engine accepted a time-varying perturbation")
	}
}

// TestCountFallbacks runs a small sweep on a brownout-perturbed profile
// and asserts the per-reason fallback tally, then checks that the same
// sweep unperturbed (and a cached rerun of the perturbed one) counts
// nothing.
func TestCountFallbacks(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	points := BcastGrid(8, []coll.BcastAlgorithm{coll.BcastBinary, coll.BcastChain}, []int{4096}, 0)

	quiet := Sweep{Profile: pr, Settings: fastSettings()}
	res, err := quiet.Run(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	if n := CountFallbacks(res); len(n) != 0 {
		t.Fatalf("unperturbed sweep counted fallbacks: %v", n)
	}

	spec, err := perturb.Parse("brownout:src=0,dst=1,start=0,end=0.001,bw=10")
	if err != nil {
		t.Fatal(err)
	}
	prp := pr
	prp.Net.Perturb = spec
	cache := NewCache()
	sw := Sweep{Profile: prp, Settings: fastSettings(), Cache: cache}
	res, err = sw.Run(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	counts := CountFallbacks(res)
	if counts[FallbackTimeVarying] != len(points) {
		t.Fatalf("counted %v, want %d × %q", counts, len(points), FallbackTimeVarying)
	}
	// Cached reruns count nothing: the fallback belongs to the run that
	// produced the measurement.
	res, err = sw.Run(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Cached {
			t.Fatalf("point %v not served from cache", r.Point)
		}
	}
	if n := CountFallbacks(res); len(n) != 0 {
		t.Fatalf("cached sweep counted fallbacks: %v", n)
	}
}

// TestPerturbedReplayMatchesScheduler is the differential determinism
// check over random perturbation specs: for deterministically generated
// time-invariant specs across seeds and intensities, the auto engine must
// (a) take the replay path and (b) reproduce the scheduler engine bit for
// bit; and the same seed + spec must reproduce itself exactly.
func TestPerturbedReplayMatchesScheduler(t *testing.T) {
	base, err := cluster.Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, intensity := range []float64{0.1, 0.5, 1.0} {
			spec := perturb.Random(seed, intensity, base.Net.NICs())
			if spec == nil {
				t.Fatalf("seed %d intensity %g: nil spec", seed, intensity)
			}
			if !spec.TimeInvariant() {
				t.Fatalf("seed %d intensity %g: Random emitted a time-varying spec", seed, intensity)
			}
			pr := base
			pr.Net.Perturb = spec
			run := func(e Engine) Measurement {
				set := fastSettings()
				set.Engine = e
				m, err := measureOne(pr, bcastPoint(coll.BcastSplitBinary, 12, 65536, 8192), set)
				if err != nil {
					t.Fatalf("seed %d intensity %g engine %v: %v", seed, intensity, e, err)
				}
				return m
			}
			label := fmt.Sprintf("seed=%d ε=%g", seed, intensity)
			ms := run(EngineScheduler)
			ma := run(EngineAuto)
			sameMeasurement(t, label, ms, ma)
			if ma.Fallback != FallbackNone {
				t.Fatalf("%s: auto fell back (%q) under a time-invariant spec", label, ma.Fallback)
			}
			sameMeasurement(t, label+" rerun", ms, run(EngineScheduler))
		}
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{
		"auto": EngineAuto, "scheduler": EngineScheduler, "replay": EngineReplay,
	} {
		e, err := ParseEngine(s)
		if err != nil || e != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, e, err)
		}
		if e.String() != s {
			t.Errorf("%v.String() = %q, want %q", e, e.String(), s)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
}

// FuzzReplayMatchesScheduler fuzzes the engine equivalence over cluster
// shape, co-location, algorithm, message and segment size, noise, and
// random perturbation specs: for any configuration, the auto engine
// (replay with fallback) must produce a measurement bit-identical to the
// scheduler engine.
func FuzzReplayMatchesScheduler(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), uint16(64), uint8(1), uint8(50), int64(1), uint8(0))
	f.Add(uint8(16), uint8(2), uint8(3), uint16(256), uint8(2), uint8(30), int64(1001), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(5), uint16(8), uint8(0), uint8(0), int64(7), uint8(40))
	f.Add(uint8(12), uint8(3), uint8(2), uint16(1024), uint8(1), uint8(80), int64(-3), uint8(100))
	f.Add(uint8(3), uint8(2), uint8(1), uint16(1), uint8(3), uint8(10), int64(42), uint8(75))
	f.Fuzz(func(t *testing.T, nodes, ppn, algIdx uint8, msgKB uint16, segSel, noiseMil uint8, seed int64, pertCent uint8) {
		nprocs := 2 + int(nodes)%15 // 2..16
		cfg := simnet.Config{
			Nodes:        nprocs,
			Latency:      20e-6,
			ByteTimeSend: 1e-9,
			ByteTimeRecv: 1e-9,
			SendOverhead: 1e-6,
			RecvOverhead: 1e-6,
		}
		if p := 1 + int(ppn)%3; p > 1 {
			cfg.ProcsPerNode = p
			cfg.IntraNodeLatency = 1e-6
			cfg.IntraNodeByteTime = 1e-10
		}
		if amp := float64(noiseMil%101) / 1000; amp > 0 {
			cfg.NoiseAmplitude = amp
			cfg.NoiseSeed = seed
		}
		if intensity := float64(pertCent%101) / 100; intensity > 0 {
			// Random specs are time-invariant, so replay must still match.
			cfg.Perturb = perturb.Random(seed, intensity, cfg.NICs())
		}
		algs := coll.BcastAlgorithms()
		alg := algs[int(algIdx)%len(algs)]
		msg := 1024 * (1 + int(msgKB)%1024)
		seg := []int{0, 8192, 16384, 65536}[int(segSel)%4]
		set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}
		op := func(p *mpi.Proc) {
			coll.Bcast(p, alg, 0, coll.Synthetic(msg), seg)
		}
		run := func(e Engine) Measurement {
			net, err := simnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			set := set
			set.Engine = e
			m, err := Measure(net, nprocs, set, Completion, op)
			if err != nil {
				t.Fatalf("engine %v: %v", e, err)
			}
			return m
		}
		sameMeasurement(t, alg.String(), run(EngineScheduler), run(EngineAuto))
	})
}
