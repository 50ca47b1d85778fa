package coll

import (
	"reflect"
	"sync"
	"testing"

	"mpicollperf/internal/topo"
)

// TestSharedTreesMatchBuilders checks that every cached shape is the tree
// its topo builder produces, and that repeated lookups share one tree.
func TestSharedTreesMatchBuilders(t *testing.T) {
	for _, tc := range []struct {
		s     shape
		build func(size, root int) (*topo.Tree, error)
	}{
		{shapeChain, func(n, r int) (*topo.Tree, error) { return topo.BuildChain(n, r, 1) }},
		{shapeKChain, func(n, r int) (*topo.Tree, error) { return topo.BuildChain(n, r, DefaultKChainFanout) }},
		{shapeBinary, func(n, r int) (*topo.Tree, error) { return topo.BuildKAry(n, r, 2) }},
		{shapeBinomial, topo.BuildBinomial},
	} {
		for _, size := range []int{1, 2, 7, 16, 45} {
			root := size / 3
			want, err := tc.build(size, root)
			if err != nil {
				t.Fatal(err)
			}
			got := sharedTree(tc.s, size, root)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d P=%d root %d: cached tree differs from the builder's", tc.s, size, root)
			}
			if again := sharedTree(tc.s, size, root); again != got {
				t.Fatalf("shape %d P=%d root %d: second lookup built a new tree", tc.s, size, root)
			}
		}
	}
}

// TestSharedShapesBounded fills the cache past its bound from several
// goroutines at once: it never holds more than shapeSlots entries, the
// oldest shapes are rebuilt on demand, and every lookup stays correct.
func TestSharedShapesBounded(t *testing.T) {
	const sizes = 2 * shapeSlots
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for size := 3; size < 3+sizes; size++ {
				if got := sharedTree(shapeBinomial, size, 0); got.Size != size {
					t.Errorf("P=%d: cached tree has size %d", size, got.Size)
				}
				if pl := planSplitBinary(size, 0, Msg{Size: 1 << 16}, 1024); pl.tree.Size != size {
					t.Errorf("P=%d: split plan over a %d-rank tree", size, pl.tree.Size)
				}
			}
		}()
	}
	wg.Wait()
	shapes.Lock()
	n := shapes.n
	shapes.Unlock()
	if n != shapeSlots {
		t.Fatalf("cache holds %d entries, bound is %d", n, shapeSlots)
	}
	if got := sharedTree(shapeBinomial, 3, 0); got.Size != 3 {
		t.Fatalf("evicted shape rebuilt with size %d", got.Size)
	}
}
