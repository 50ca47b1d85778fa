package experiment

import (
	"errors"
	"testing"

	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/simnet"
)

// TestCompileFallsBack: a class-keyed point whose program the structural
// compile cannot handle — payload bytes, a Proc.Now read, ranks that
// disagree on their barriers, a deadlocking pair — falls back to the
// capture path: the compile fallback is counted, and the outcome (the
// measurement, or the error) is the scheduler engine's.
func TestCompileFallsBack(t *testing.T) {
	const nprocs = 4
	data := []byte("payload")
	ops := map[string]Op{
		"payload": func(p *mpi.Proc) {
			if p.Rank() == 0 {
				p.Send(1, 0, data, -1)
			} else if p.Rank() == 1 {
				p.Recv(0, 0, make([]byte, len(data)))
			}
		},
		"now": func(p *mpi.Proc) {
			if p.Now() >= 0 {
				coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(8192), 0)
			}
		},
		// Rank 2 waits for a message rank 0 sends only after a barrier
		// rank 2 never enters. (A rank that merely skips a barrier would
		// shift every later barrier of the harness loop out of step.)
		"barriers": func(p *mpi.Proc) {
			switch p.Rank() {
			case 2:
				p.Recv(0, 9, nil)
			case 0:
				p.Barrier()
				p.Send(2, 9, nil, 64)
			default:
				p.Barrier()
			}
		},
		"deadlock": func(p *mpi.Proc) {
			if p.Rank() < 2 {
				peer := 1 - p.Rank()
				p.Recv(peer, 0, nil)
				p.Send(peer, 0, nil, 64)
			}
		},
	}
	set := fastSettings()
	sched := set
	sched.Engine = EngineScheduler
	for name, op := range ops {
		refNet, err := simnet.New(noisyConfig(nprocs))
		if err != nil {
			t.Fatal(err)
		}
		want, werr := Measure(refNet, nprocs, sched, Completion, op)
		reg := obs.NewRegistry()
		net, err := simnet.New(noisyConfig(nprocs))
		if err != nil {
			t.Fatal(err)
		}
		r := mpi.NewRunnerOn(net, mpi.Options{Metrics: reg})
		got, gerr := measureOnClass(r, nprocs, set, Completion, op, planClass{key: "class/" + name, store: mpi.NewTemplateStore()})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: scheduler error %v, compile path error %v", name, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() || !errors.Is(gerr, mpi.ErrDeadlock) {
				t.Fatalf("%s: scheduler error %v, compile path error %v", name, werr, gerr)
			}
		} else {
			sameMeasurement(t, name, want, got)
		}
		if n := reg.Counter(mFallbacksByWhy[FallbackCompile]).Value(); n != 1 {
			t.Fatalf("%s: %d compile fallbacks counted, want 1", name, n)
		}
		if n := reg.Counter(mPlanCompiles).Value(); n != 0 {
			t.Fatalf("%s: %d points counted as compiled", name, n)
		}
	}
}

// FuzzCompileMatchesCapture is the compile path's differential fuzz
// target: for any cluster shape, co-location, collective, message and
// segment size, noise and time-invariant perturbation, a class-keyed
// measurement (compiled goroutine-free, no scheduler run) must be
// bit-identical to the class-less capture-and-echo measurement of the
// same operation, and to the scheduler engine.
func FuzzCompileMatchesCapture(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), uint16(64), uint8(1), uint8(50), int64(1), uint8(0))
	f.Add(uint8(16), uint8(2), uint8(9), uint16(256), uint8(2), uint8(30), int64(1001), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(13), uint16(8), uint8(0), uint8(0), int64(7), uint8(40))
	f.Add(uint8(12), uint8(3), uint8(7), uint16(1024), uint8(1), uint8(80), int64(-3), uint8(100))
	f.Add(uint8(3), uint8(2), uint8(11), uint16(1), uint8(3), uint8(10), int64(42), uint8(75))
	f.Add(uint8(9), uint8(1), uint8(8), uint16(300), uint8(1), uint8(20), int64(5), uint8(30))
	f.Fuzz(func(t *testing.T, nodes, ppn, opIdx uint8, msgKB uint16, segSel, noiseMil uint8, seed int64, pertCent uint8) {
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
			cfg.Perturb = perturb.Random(seed, intensity, cfg.NICs())
		}
		m := 1024 * (1 + int(msgKB)%1024)
		seg := []int{0, 8192, 16384, 65536}[int(segSel)%4]
		bs := m / nprocs
		ops := []Op{}
		for _, alg := range coll.BcastAlgorithms() {
			alg := alg
			ops = append(ops, func(p *mpi.Proc) { coll.Bcast(p, alg, 0, coll.Synthetic(m), seg) })
		}
		ops = append(ops,
			func(p *mpi.Proc) { coll.Allgather(p, coll.AllgatherRing, coll.Synthetic(bs*nprocs), bs) },
			func(p *mpi.Proc) {
				coll.Alltoall(p, coll.AlltoallLinear, coll.Synthetic(bs*nprocs), coll.Synthetic(bs*nprocs), bs)
			},
			func(p *mpi.Proc) { coll.Reduce(p, coll.ReduceBinomial, 0, coll.Synthetic(m), nil, seg) },
			func(p *mpi.Proc) { coll.Allreduce(p, coll.AllreduceRing, coll.Synthetic(m), nil, seg) },
			func(p *mpi.Proc) {
				if p.Rank() == 0 {
					coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(bs*nprocs), bs)
				} else {
					coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(bs), bs)
				}
			},
			func(p *mpi.Proc) {
				if p.Rank() == 0 {
					coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(bs*nprocs), bs)
				} else {
					coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(bs), bs)
				}
			},
		)
		op := ops[int(opIdx)%len(ops)]
		mode := Mode(int(opIdx) / len(ops) % 2)
		set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}
		measure := func(set Settings, cls planClass) Measurement {
			net, err := simnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			r := mpi.NewRunnerOn(net, mpi.Options{Metrics: reg})
			meas, err := measureOnClass(r, nprocs, set, mode, op, cls)
			if err != nil {
				t.Fatalf("op %d (class %q): %v", opIdx, cls.key, err)
			}
			if cls.key != "" && reg.Counter(mPlanCompiles).Value() != 1 {
				t.Fatalf("op %d: class-keyed point was not compiled", opIdx)
			}
			return meas
		}
		sched := set
		sched.Engine = EngineScheduler
		want := measure(sched, planClass{})
		sameMeasurement(t, "capture", want, measure(set, planClass{}))
		sameMeasurement(t, "compile", want, measure(set, planClass{key: "fuzz"}))
	})
}
