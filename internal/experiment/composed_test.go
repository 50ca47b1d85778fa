package experiment

import (
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
)

// TestMeasureComposedMatchesBcastThenGather pins the composition
// contract: the §4.2 bcast+gather stage swept as a grid point and an
// explicit MeasureComposedClass of the same two operations are the same
// measurement, bit for bit, with and without a template store attached.
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
	got, err := MeasureComposedClass(r, pr, nprocs, set, RootTime, "", nil, stages...)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "composed vs stage", want, got)

	// Template fast path: the first composed measurement of a class
	// captures, the second rebinds — both bit-identical to the stage.
	tmpl := mpi.NewTemplateStore()
	key := "test/bcast+gather/P=8/segs=8"
	for pass, label := range []string{"capture", "rebind"} {
		got, err := MeasureComposedClass(r, pr, nprocs, set, RootTime, key, tmpl, stages...)
		if err != nil {
			t.Fatalf("pass %d (%s): %v", pass, label, err)
		}
		sameMeasurement(t, "templated "+label, want, got)
	}
	if tmpl.Len() != 1 {
		t.Errorf("template store holds %d plans, want 1", tmpl.Len())
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
