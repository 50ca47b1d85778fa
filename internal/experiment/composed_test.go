package experiment

import (
	"fmt"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
)

// TestMeasureComposedMatchesBcastThenGather pins the composition
// contract: the §4.2 bcast+gather stage swept as a grid point and an
// explicit composed measurement of the same two operations are the same
// measurement, bit for bit, captured (empty class key) or compiled.
func TestMeasureComposedMatchesBcastThenGather(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	set := fastSettings()
	const (
		nprocs = 8
		m      = 65536
		mg     = 1024
	)
	stages := []Op{
		func(p *mpi.Proc) {
			coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(m), pr.SegmentSize)
		},
		func(p *mpi.Proc) {
			if p.Rank() == 0 {
				coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg*p.Size()), mg)
			} else {
				coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg), mg)
			}
		},
	}

	want, err := measureOne(pr, Point{Stage: BcastThenGatherStage(coll.BcastBinomial, mg), Procs: nprocs, MsgBytes: m, SegSize: pr.SegmentSize}, set)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newProfileRunner(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "any"} {
		got, err := MeasureComposedClass(r, pr, nprocs, set, RootTime, key, mpi.NewTemplateStore(), stages...)
		if err != nil {
			t.Fatalf("classKey=%q: %v", key, err)
		}
		sameMeasurement(t, fmt.Sprintf("composed (classKey=%q) vs stage", key), want, got)
	}
}

func TestMeasureComposedErrors(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newProfileRunner(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureComposedClass(r, pr, 4, fastSettings(), Completion, "", nil); err == nil {
		t.Error("MeasureComposedClass accepted an empty stage list")
	}
	if _, err := MeasureComposedClass(r, pr, 8, fastSettings(), Completion, "", nil, func(p *mpi.Proc) {}); err == nil {
		t.Error("MeasureComposedClass accepted more procs than the profile has nodes")
	}
}
