package experiment

import (
	"errors"
	"fmt"
	"testing"

	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/simnet"
)

// TestCompileFallsBack: a timing-independent point whose program the
// structural compile cannot handle — payload bytes, a Proc.Now read,
// ranks that disagree on their barriers — or whose compiled plan cannot
// replay — a deadlocking pair — goes straight to the scheduler: exactly
// one fallback is counted, with the reason the failure names; no point
// counts as compiled; and the outcome (the measurement, or the error) is
// the scheduler engine's.
func TestCompileFallsBack(t *testing.T) {
	const nprocs = 4
	data := []byte("payload")
	ops := map[string]struct {
		op  Op
		why FallbackReason
	}{
		"payload": {func(p *mpi.Proc) {
			if p.Rank() == 0 {
				p.Send(1, 0, data, -1)
			} else if p.Rank() == 1 {
				p.Recv(0, 0, make([]byte, len(data)))
			}
		}, FallbackPayload},
		"now": {func(p *mpi.Proc) {
			if p.Now() >= 0 {
				coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(8192), 0)
			}
		}, FallbackCompile},
		// Rank 2 waits for a message rank 0 sends only after a barrier
		// rank 2 never enters. (A rank that merely skips a barrier would
		// shift every later barrier of the harness loop out of step.)
		"barriers": {func(p *mpi.Proc) {
			switch p.Rank() {
			case 2:
				p.Recv(0, 9, nil)
			case 0:
				p.Barrier()
				p.Send(2, 9, nil, 64)
			default:
				p.Barrier()
			}
		}, FallbackCompile},
		"deadlock": {func(p *mpi.Proc) {
			if p.Rank() < 2 {
				peer := 1 - p.Rank()
				p.Recv(peer, 0, nil)
				p.Send(peer, 0, nil, 64)
			}
		}, FallbackPlan},
	}
	set := fastSettings()
	sched := set
	sched.Engine = EngineScheduler
	for name, c := range ops {
		op := c.op
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
		got, gerr := measureOnEngine(r, nprocs, set, Completion, op, true)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: scheduler error %v, compile path error %v", name, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() || !errors.Is(gerr, mpi.ErrDeadlock) {
				t.Fatalf("%s: scheduler error %v, compile path error %v", name, werr, gerr)
			}
		} else {
			sameMeasurement(t, name, want, got)
			if got.Fallback != c.why {
				t.Fatalf("%s: fallback %q, want %q", name, got.Fallback, c.why)
			}
		}
		for _, why := range fallbackReasonSet {
			want := int64(0)
			if why == c.why {
				want = 1
			}
			if n := reg.Counter(mFallbacksByWhy[why]).Value(); n != want {
				t.Fatalf("%s: %d %q fallbacks counted, want %d", name, n, why, want)
			}
		}
		if n := reg.Counter(mPlanCompiles).Value(); n != 0 {
			t.Fatalf("%s: %d points counted as compiled", name, n)
		}
	}
}

// FuzzCompileMatchesCapture is the compile path's differential fuzz
// target: for any cluster shape, co-location, collective, message and
// segment size, noise and time-invariant perturbation, a
// timing-independent measurement (one compile, no scheduler run), the
// same operation as an undeclared closure (compile plus the verify
// pass) and the scheduler engine must agree bit for bit. One recycled
// Runner then compiles m1, m2 and m1 again back to back: its warm plan,
// stream and replay buffers must not leak from one point into the next.
func FuzzCompileMatchesCapture(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), uint16(64), uint16(512), uint8(1), uint8(50), int64(1), uint8(0))
	f.Add(uint8(16), uint8(2), uint8(9), uint16(256), uint16(16), uint8(2), uint8(30), int64(1001), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(13), uint16(8), uint16(100), uint8(0), uint8(0), int64(7), uint8(40))
	f.Add(uint8(12), uint8(3), uint8(7), uint16(1024), uint16(64), uint8(1), uint8(80), int64(-3), uint8(100))
	f.Add(uint8(3), uint8(2), uint8(11), uint16(1), uint16(33), uint8(3), uint8(10), int64(42), uint8(75))
	f.Add(uint8(9), uint8(1), uint8(8), uint16(300), uint16(2), uint8(1), uint8(20), int64(5), uint8(30))
	// Broadcast shapes whose two sizes share a segment count, or not.
	f.Add(uint8(8), uint8(1), uint8(0), uint16(64), uint16(64), uint8(1), uint8(50), int64(1), uint8(0))
	f.Add(uint8(16), uint8(2), uint8(3), uint16(256), uint16(255), uint8(2), uint8(30), int64(1001), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(5), uint16(8), uint16(512), uint8(0), uint8(0), int64(7), uint8(0))
	f.Add(uint8(12), uint8(3), uint8(2), uint16(1024), uint16(8), uint8(1), uint8(80), int64(-3), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(4), uint16(1), uint16(2), uint8(3), uint8(10), int64(42), uint8(0))
	f.Fuzz(func(t *testing.T, nodes, ppn, opIdx uint8, m1KB, m2KB uint16, segSel, noiseMil uint8, seed int64, pertCent uint8) {
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
		seg := []int{0, 8192, 16384, 65536}[int(segSel)%4]
		// Each operation is built for a message size m.
		ops := []func(m int) Op{}
		for _, alg := range coll.BcastAlgorithms() {
			alg := alg
			ops = append(ops, func(m int) Op {
				return func(p *mpi.Proc) { coll.Bcast(p, alg, 0, coll.Synthetic(m), seg) }
			})
		}
		ops = append(ops,
			func(m int) Op {
				bs := m / nprocs
				return func(p *mpi.Proc) { coll.Allgather(p, coll.AllgatherRing, coll.Synthetic(bs*nprocs), bs) }
			},
			func(m int) Op {
				bs := m / nprocs
				return func(p *mpi.Proc) {
					coll.Alltoall(p, coll.AlltoallLinear, coll.Synthetic(bs*nprocs), coll.Synthetic(bs*nprocs), bs)
				}
			},
			func(m int) Op {
				return func(p *mpi.Proc) { coll.Reduce(p, coll.ReduceBinomial, 0, coll.Synthetic(m), nil, seg) }
			},
			func(m int) Op {
				return func(p *mpi.Proc) { coll.Allreduce(p, coll.AllreduceRing, coll.Synthetic(m), nil, seg) }
			},
			func(m int) Op {
				bs := m / nprocs
				return func(p *mpi.Proc) {
					if p.Rank() == 0 {
						coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(bs*nprocs), bs)
					} else {
						coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(bs), bs)
					}
				}
			},
			func(m int) Op {
				bs := m / nprocs
				return func(p *mpi.Proc) {
					if p.Rank() == 0 {
						coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(bs*nprocs), bs)
					} else {
						coll.Scatter(p, coll.ScatterBinomial, 0, coll.Synthetic(bs), bs)
					}
				}
			},
		)
		opAt := ops[int(opIdx)%len(ops)]
		mode := Mode(int(opIdx) / len(ops) % 2)
		set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}
		sched := set
		sched.Engine = EngineScheduler
		newRunner := func() (*mpi.Runner, *obs.Registry) {
			net, err := simnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			return mpi.NewRunnerOn(net, mpi.Options{Metrics: reg}), reg
		}
		measure := func(r *mpi.Runner, m int, set Settings, declared bool) Measurement {
			meas, err := measureOnEngine(r, nprocs, set, mode, opAt(m), declared)
			if err != nil {
				t.Fatalf("op %d m=%d (declared=%v): %v", opIdx, m, declared, err)
			}
			return meas
		}
		fresh := func(m int, set Settings, declared bool) Measurement {
			r, reg := newRunner()
			meas := measure(r, m, set, declared)
			if set.Engine != EngineScheduler && reg.Counter(mPlanCompiles).Value() != 1 {
				t.Fatalf("op %d m=%d (declared=%v): point was not replayed from a plan", opIdx, m, declared)
			}
			return meas
		}
		m1 := 1024 * (1 + int(m1KB)%1024)
		m2 := 1024 * (1 + int(m2KB)%1024)
		want := map[int]Measurement{m1: fresh(m1, sched, false), m2: fresh(m2, sched, false)}
		sameMeasurement(t, "verify", want[m1], fresh(m1, set, false))
		sameMeasurement(t, "compile", want[m1], fresh(m1, set, true))
		recycled, reg := newRunner()
		for i, m := range []int{m1, m2, m1} {
			sameMeasurement(t, fmt.Sprintf("recycled compile %d (m=%d)", i, m), want[m], measure(recycled, m, set, true))
			if n := reg.Counter(mPlanCompiles).Value(); n != int64(i+1) {
				t.Fatalf("op %d: recycled Runner compiled %d of %d points", opIdx, n, i+1)
			}
		}
	})
}
