package experiment

import (
	"context"
	"math"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/simnet"
)

func quietConfig(nodes int) simnet.Config {
	return simnet.Config{
		Nodes:        nodes,
		Latency:      20e-6,
		ByteTimeSend: 1e-9,
		ByteTimeRecv: 1e-9,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
	}
}

func noisyConfig(nodes int) simnet.Config {
	cfg := quietConfig(nodes)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 777
	return cfg
}

func fastSettings() Settings {
	return Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 50, Warmup: 1}
}

func TestMeasureNoiseFreeMatchesModel(t *testing.T) {
	cfg := quietConfig(2)
	net, _ := simnet.New(cfg)
	const m = 1 << 16
	meas, err := Measure(net, 2, fastSettings(), Completion, func(p *mpi.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, m)
		} else {
			p.Recv(0, 0, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.PointToPointTime(m)
	if math.Abs(meas.Mean-want) > 1e-9 {
		t.Fatalf("measured %v, Hockney model %v", meas.Mean, want)
	}
	if !meas.Converged {
		t.Fatal("noise-free measurement should converge")
	}
	if meas.Reps < 3 {
		t.Fatalf("reps = %d", meas.Reps)
	}
}

func TestMeasureConvergesUnderNoise(t *testing.T) {
	net, _ := simnet.New(noisyConfig(4))
	meas, err := Measure(net, 4, fastSettings(), Completion, func(p *mpi.Proc) {
		coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(32768), 8192)
		_ = p
	})
	if err != nil {
		t.Fatal(err)
	}
	if !meas.Converged {
		t.Fatalf("did not converge in %d reps (rel err %v)", meas.Reps, meas.CI.RelativeError())
	}
	if meas.CI.RelativeError() > 0.025 {
		t.Fatalf("CI relative error %v > 2.5%%", meas.CI.RelativeError())
	}
	if meas.Mean <= 0 {
		t.Fatal("non-positive mean")
	}
	// Under noise the samples must actually vary.
	varied := false
	for _, s := range meas.Samples[1:] {
		if s != meas.Samples[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("noisy samples are all identical — noise stream not advancing across reps")
	}
}

func TestMeasureRespectsMaxReps(t *testing.T) {
	net, _ := simnet.New(noisyConfig(2))
	set := Settings{Confidence: 0.95, Precision: 1e-9, MinReps: 2, MaxReps: 7, Warmup: 0}
	meas, err := Measure(net, 2, set, Completion, func(p *mpi.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 4096)
		} else {
			p.Recv(0, 0, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if meas.Converged {
		t.Fatal("cannot converge to 1e-9 precision under 5% noise")
	}
	if meas.Reps != 7 {
		t.Fatalf("reps = %d, want MaxReps=7", meas.Reps)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	run := func() Measurement {
		net, _ := simnet.New(noisyConfig(6))
		m, err := Measure(net, 6, fastSettings(), Completion, func(p *mpi.Proc) {
			coll.Bcast(p, coll.BcastBinary, 0, coll.Synthetic(16384), 8192)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Mean != b.Mean || a.Reps != b.Reps {
		t.Fatalf("measurement not reproducible: %v/%d vs %v/%d", a.Mean, a.Reps, b.Mean, b.Reps)
	}
}

func TestRootTimeVsCompletion(t *testing.T) {
	// For a broadcast, the root finishes (buffers free) before the leaves
	// have the data: RootTime must be strictly smaller than Completion.
	mk := func(mode Mode) float64 {
		net, _ := simnet.New(quietConfig(8))
		m, err := Measure(net, 8, fastSettings(), mode, func(p *mpi.Proc) {
			coll.Bcast(p, coll.BcastLinear, 0, coll.Synthetic(1<<20), 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Mean
	}
	rt, cp := mk(RootTime), mk(Completion)
	if rt >= cp {
		t.Fatalf("RootTime %v should be < Completion %v for a broadcast", rt, cp)
	}
}

func TestSettingsDefaults(t *testing.T) {
	s := Settings{}.withDefaults()
	d := DefaultSettings()
	d.Warmup = 0 // warmup is opt-in; the zero value means none
	if s != d {
		t.Fatalf("withDefaults() = %+v, want %+v", s, d)
	}
	if DefaultSettings().Warmup != 1 {
		t.Fatal("DefaultSettings should include one warmup repetition")
	}
	// Partial settings keep their values.
	s2 := Settings{Precision: 0.1, MinReps: 4, MaxReps: 9, Warmup: 2, Confidence: 0.9}.withDefaults()
	if s2.Precision != 0.1 || s2.MinReps != 4 || s2.MaxReps != 9 || s2.Warmup != 2 || s2.Confidence != 0.9 {
		t.Fatalf("withDefaults clobbered explicit values: %+v", s2)
	}
	// MaxReps below MinReps is repaired.
	s3 := Settings{MinReps: 50, MaxReps: 10}.withDefaults()
	if s3.MaxReps < s3.MinReps {
		t.Fatalf("MaxReps %d < MinReps %d", s3.MaxReps, s3.MinReps)
	}
}

// measureOne measures a single point through a serial Sweep: one fresh
// simulator, the reference the engine tests compare against.
func measureOne(pr cluster.Profile, pt Point, set Settings) (Measurement, error) {
	res, err := Sweep{Profile: pr, Settings: set, Workers: 1}.Run(context.Background(), []Point{pt})
	if err != nil {
		return Measurement{}, err
	}
	return res[0].Meas, nil
}

// bcastPoint is the broadcast grid point of alg at (procs, m, segSize).
func bcastPoint(alg coll.BcastAlgorithm, procs, m, segSize int) Point {
	return Point{Stage: BcastStage(alg), Procs: procs, MsgBytes: m, SegSize: segSize}
}

func TestMeasureBcastOnProfile(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := measureOne(pr, bcastPoint(coll.BcastBinomial, 12, 65536, 8192), fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Mean <= 0 || !meas.Converged {
		t.Fatalf("measurement = %+v", meas)
	}
	if _, err := measureOne(pr, bcastPoint(coll.BcastBinomial, 99, 65536, 8192), fastSettings()); err == nil {
		t.Fatal("too many procs should fail")
	}
}

func TestMeasureBcastThenGatherEndsOnRoot(t *testing.T) {
	pr, err := cluster.Gros().WithNodes(10)
	if err != nil {
		t.Fatal(err)
	}
	st := BcastThenGatherStage(coll.BcastBinomial, 1024)
	if st.Mode != RootTime {
		t.Fatalf("bcast+gather stage mode = %v, want RootTime", st.Mode)
	}
	meas, err := measureOne(pr, Point{Stage: st, Procs: 10, MsgBytes: 81920, SegSize: 8192}, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Mean <= 0 {
		t.Fatalf("mean = %v", meas.Mean)
	}
	if _, err := measureOne(pr, Point{Stage: st, Procs: 999, MsgBytes: 81920, SegSize: 8192}, fastSettings()); err == nil {
		t.Fatal("too many procs should fail")
	}
}

func TestMeasureLinearBcastGammaGrowth(t *testing.T) {
	// T2(P) must grow with P — the serialisation γ(P) captures.
	pr := cluster.Grisou()
	var prev float64
	for p := 2; p <= 7; p++ {
		meas, err := measureOne(pr, bcastPoint(coll.BcastLinear, p, pr.SegmentSize, 0), fastSettings())
		if err != nil {
			t.Fatal(err)
		}
		if p > 2 && meas.Mean <= prev {
			t.Fatalf("T2(%d)=%v not greater than T2(%d)=%v", p, meas.Mean, p-1, prev)
		}
		prev = meas.Mean
	}
}

func TestMeasurePropagatesRankErrors(t *testing.T) {
	net, _ := simnet.New(quietConfig(2))
	_, err := Measure(net, 2, fastSettings(), Completion, func(p *mpi.Proc) {
		p.Recv(1-p.Rank(), 0, nil) // deadlock
	})
	if err == nil {
		t.Fatal("expected deadlock error to propagate")
	}
}

func TestDiagnosticsPopulated(t *testing.T) {
	net, _ := simnet.New(noisyConfig(4))
	set := Settings{MinReps: 20, MaxReps: 20, Precision: 1e-12, Warmup: 0, Confidence: 0.95}
	meas, err := Measure(net, 4, set, Completion, func(p *mpi.Proc) {
		coll.Bcast(p, coll.BcastChain, 0, coll.Synthetic(8192), 8192)
	})
	if err != nil {
		t.Fatal(err)
	}
	if meas.Reps != 20 || len(meas.Samples) != 20 {
		t.Fatalf("reps = %d", meas.Reps)
	}
	if meas.NormalityP < 0 || meas.NormalityP > 1 {
		t.Fatalf("normality p = %v", meas.NormalityP)
	}
	if math.Abs(meas.Lag1) > 1 {
		t.Fatalf("lag1 = %v", meas.Lag1)
	}
}
