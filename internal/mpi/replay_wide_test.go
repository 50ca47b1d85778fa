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
func BenchmarkReplayWide(b *testing.B) {
	pr := cluster.Grisou()
	const m = 512 << 10
	for _, nprocs := range []int{16, 45, 90} {
		b.Run(fmt.Sprintf("P=%d", nprocs), func(b *testing.B) {
			b.ReportAllocs()
			net, err := pr.Network()
			if err != nil {
				b.Fatal(err)
			}
			r := mpi.NewRunnerOn(net, mpi.Options{})
			plan, err := r.Compile(nprocs, func(p *mpi.Proc) error {
				root := p.Rank() == 0
				p.Barrier()
				if root {
					p.Mark()
				}
				coll.Bcast(p, coll.BcastSplitBinary, 0, coll.Synthetic(m), pr.SegmentSize)
				p.Barrier()
				if root {
					p.Mark()
				}
				p.Barrier()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
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
			b.ReportMetric(float64(plan.Sends()), "sends/op")
		})
	}
}
