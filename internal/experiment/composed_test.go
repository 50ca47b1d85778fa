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
// explicit MeasureComposed of the same two operations are the same
// measurement, bit for bit, captured or compiled.
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
	for _, compiled := range []bool{false, true} {
		got, err := MeasureComposed(r, pr, nprocs, set, RootTime, compiled, stages...)
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		sameMeasurement(t, fmt.Sprintf("composed (compiled=%v) vs stage", compiled), want, got)
	}
	// The deprecated class-key spelling: a non-empty key compiles and the
	// store is ignored.
	got, err := MeasureComposedClass(r, pr, nprocs, set, RootTime, "any", mpi.NewTemplateStore(), stages...)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "class-keyed composed (deprecated) vs stage", want, got)
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
	if _, err := MeasureComposed(r, pr, 4, fastSettings(), Completion, false); err == nil {
		t.Error("MeasureComposed accepted an empty stage list")
	}
	if _, err := MeasureComposed(r, pr, 8, fastSettings(), Completion, false, func(p *mpi.Proc) {}); err == nil {
		t.Error("MeasureComposed accepted more procs than the profile has nodes")
	}
}
