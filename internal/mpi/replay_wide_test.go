package mpi_test

import (
	"fmt"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
)

// BenchmarkReplayWide measures one replayed repetition at the calibration
// shape: a compiled split-binary broadcast of 512 KiB (64 segments of
// grisou's 8 KiB) on grisou, wrapped in the measurement harness's open,
// close and decide barriers, at P up to grisou's 90 nodes. Unlike
// BenchmarkReplayRep's 16 ranks, the wide frontier here is where the
// replay's per-event selection cost shows.
//
// The calib cases compile and replay the calibration's largest plan: the
// §4.2 estimation experiment (binomial broadcast of 4 MiB in 8 KiB
// segments, then a linear gather of 256 B per rank, timed on the root) at
// P=45, about 79k events. A plan that size outgrows the L2 cache unless
// its layout is compact, which the smaller cases, all cache-resident,
// cannot show; plan-B/event reports the layout's footprint.
func BenchmarkReplayWide(b *testing.B) {
	pr := cluster.Grisou()
	const m = 512 << 10
	for _, nprocs := range []int{16, 45, 90} {
		b.Run(fmt.Sprintf("P=%d", nprocs), func(b *testing.B) {
			r, plan := compileWide(b, nprocs, true, func(p *mpi.Proc) {
				coll.Bcast(p, coll.BcastSplitBinary, 0, coll.Synthetic(m), pr.SegmentSize)
			})
			benchReplay(b, r, plan, nprocs)
			b.ReportMetric(float64(plan.Sends()), "sends/op")
		})
	}
	const calibP, calibM, mg = 45, 4 << 20, 256
	calib := func(p *mpi.Proc) {
		coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(calibM), pr.SegmentSize)
		if p.Rank() == 0 {
			coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg*p.Size()), mg)
		} else {
			coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg), mg)
		}
	}
	b.Run("calib/op=compile", func(b *testing.B) {
		r, plan := compileWide(b, calibP, false, calib)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Compile(calibP, wideRep(false, calib)); err != nil {
				b.Fatal(err)
			}
		}
		reportPlan(b, plan)
	})
	b.Run("calib/op=replay", func(b *testing.B) {
		r, plan := compileWide(b, calibP, false, calib)
		benchReplay(b, r, plan, calibP)
		reportPlan(b, plan)
	})
}

// wideRep is one repetition of op as the measurement harness spans it:
// open barrier, the root's sample marks around op, the close barrier in
// completion mode (closed) and the decide barrier.
func wideRep(closed bool, op func(*mpi.Proc)) func(*mpi.Proc) error {
	return func(p *mpi.Proc) error {
		root := p.Rank() == 0
		p.Barrier()
		if root {
			p.Mark()
		}
		op(p)
		if closed {
			p.Barrier()
		}
		if root {
			p.Mark()
		}
		p.Barrier()
		return nil
	}
}

// compileWide compiles one repetition of op on a fresh grisou Runner.
func compileWide(b *testing.B, nprocs int, closed bool, op func(*mpi.Proc)) (*mpi.Runner, *mpi.Plan) {
	b.Helper()
	net, err := cluster.Grisou().Network()
	if err != nil {
		b.Fatal(err)
	}
	r := mpi.NewRunnerOn(net, mpi.Options{})
	plan, err := r.Compile(nprocs, wideRep(closed, op))
	if err != nil {
		b.Fatal(err)
	}
	return r, plan
}

// benchReplay times one replayed repetition of plan on nprocs ranks per
// iteration,
// starting from the harness's two calibration barriers.
func benchReplay(b *testing.B, r *mpi.Runner, plan *mpi.Plan, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	start := make([]float64, nprocs)
	for i := range start {
		start[i] = 2 * plan.BarrierCost()
	}
	rp, err := r.NewReplayer(plan, start, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rp.Replay(1); !ok {
			b.Fatal("replay failed")
		}
	}
}

// reportPlan reports plan's size: events walked per repetition and the
// bytes its tables occupy per event.
func reportPlan(b *testing.B, plan *mpi.Plan) {
	b.ReportMetric(float64(plan.Events()), "events/op")
	b.ReportMetric(float64(mpi.PlanBytes(plan))/float64(plan.Events()), "plan-B/event")
}
