package guideline

import (
	"fmt"
	"math"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/simnet"
	"mpicollperf/internal/stats"
)

// arrivalOrder checks the simulator's greedy receive-port bookkeeping
// through a network's trace hook. simnet reserves a receive port in the
// order transfers are issued, so a transfer that arrives before one
// reserved ahead of it on the same port still queues behind it: it
// arrived earlier and is served later. Unequal latencies (perturbed
// links, co-located processes, stragglers) and unequal sizes both make
// that happen; arrivalOrder counts such transfers per destination NIC and
// records how long each waits at the port after arriving.
type arrivalOrder struct {
	net *simnet.Network
	// lastArr is, per NIC, the latest arrival among the transfers reserved
	// on its receive port so far.
	lastArr []float64
	// transfers counts inter-NIC transfers; inverted the ones that arrived
	// earlier than one reserved before them.
	transfers, inverted int
	// waitSum and waitMax total the inverted transfers' waits (service
	// start minus arrival, seconds); relMax is the largest wait relative
	// to the transfer's own issue-to-delivery span.
	waitSum, waitMax, relMax float64
}

// watch installs the checker on net, which must be idle (Runner.Run
// resets it before the measurement's single run).
func watch(net *simnet.Network) *arrivalOrder {
	c := &arrivalOrder{net: net, lastArr: make([]float64, net.Config().NICs())}
	net.SetTrace(c.observe)
	return c
}

func (c *arrivalOrder) observe(tr simnet.Transfer) {
	cfg := c.net.Config()
	d := cfg.NIC(tr.Dst)
	lt := c.net.TimingFor(tr.Src, tr.Dst, tr.Bytes)
	if lt.Local {
		return
	}
	c.transfers++
	if tr.Arrival < c.lastArr[d] {
		// Served when the port drains before the transfer's own
		// occupancy and receive overhead.
		wait := tr.Delivered - lt.RecvOv - lt.RxTime - tr.Arrival
		c.inverted++
		c.waitSum += wait
		c.waitMax = max(c.waitMax, wait)
		c.relMax = max(c.relMax, wait/(tr.Delivered-tr.Issued))
	}
	c.lastArr[d] = max(c.lastArr[d], tr.Arrival)
}

func (c *arrivalOrder) add(o *arrivalOrder) {
	c.transfers += o.transfers
	c.inverted += o.inverted
	c.waitSum += o.waitSum
	c.waitMax = max(c.waitMax, o.waitMax)
	c.relMax = max(c.relMax, o.relMax)
}

func (c *arrivalOrder) String() string {
	frac, mean := 0.0, 0.0
	if c.transfers > 0 {
		frac = float64(c.inverted) / float64(c.transfers)
	}
	if c.inverted > 0 {
		mean = c.waitSum / float64(c.inverted)
	}
	return fmt.Sprintf("%d of %d inter-NIC transfers (%.3f%%) served after a later arrival; wait mean %.2f µs, max %.2f µs (%.1f%% of its transfer)",
		c.inverted, c.transfers, 100*frac, mean*1e6, c.waitMax*1e6, 100*c.relMax)
}

// surveyPoints measures every point with the scheduler engine on a traced
// network of pr and returns the checker's totals.
func surveyPoints(t testing.TB, pr cluster.Profile, points []experiment.Point) *arrivalOrder {
	t.Helper()
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 3, Warmup: 1, Engine: experiment.EngineScheduler}
	total := &arrivalOrder{}
	seen := make(map[string]bool)
	for _, pt := range points {
		if seen[pt.String()] {
			continue
		}
		seen[pt.String()] = true
		net, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		c := watch(net)
		st, m, seg := pt.Stage, pt.MsgBytes, pt.SegSize
		if _, err := experiment.Measure(net, pt.Procs, set, st.Mode, func(p *mpi.Proc) { st.Run(p, m, seg) }); err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		total.add(c)
	}
	return total
}

// TestArrivalOrderCheckerCatchesInversion pins the checker on a hand-built
// case: a large send and a later small send to the same destination. The
// small one arrives first but its receive port was already reserved for
// the large one, so it waits for the large one to drain.
func TestArrivalOrderCheckerCatchesInversion(t *testing.T) {
	pr, err := cluster.Custom("arrival", 3, 5e-6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	pr.Net.NoiseAmplitude = 0
	net, err := pr.Network()
	if err != nil {
		t.Fatal(err)
	}
	c := watch(net)
	big, err := net.Transmit(0, 2, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := net.Transmit(1, 2, 8, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if small.Arrival >= big.Arrival {
		t.Fatalf("small send arrives at %v, after the large one's %v", small.Arrival, big.Arrival)
	}
	if c.transfers != 2 || c.inverted != 1 {
		t.Fatalf("checker counted %d inverted of %d, want 1 of 2", c.inverted, c.transfers)
	}
	// It waits from its arrival until the large transfer has drained.
	want := big.Delivered - pr.Net.RecvOverhead - small.Arrival
	if math.Abs(c.waitMax-want) > 1e-12 {
		t.Fatalf("wait %v, want %v", c.waitMax, want)
	}
	// Issued in arrival order, nothing is flagged.
	net.Reset()
	c = watch(net)
	for _, tr := range [][3]int{{1, 2, 8}, {0, 2, 1 << 20}} {
		if _, err := net.Transmit(tr[0], tr[1], tr[2], 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.inverted != 0 {
		t.Fatalf("in-order arrivals flagged %d times", c.inverted)
	}
}

// calibrationPoints is the broadcast calibration's default grid on pr
// (estimate.Gamma and estimate.AlphaBeta): the §4.1 linear broadcasts of
// one segment at P = 2..MaxLinearFanout, and the §4.2 broadcast+gather of
// every algorithm at half the platform over 10 sizes from 8 KiB to 4 MiB.
func calibrationPoints(pr cluster.Profile) []experiment.Point {
	var points []experiment.Point
	for p := 2; p <= min(pr.MaxLinearFanout, pr.Nodes); p++ {
		points = append(points, experiment.Point{Stage: experiment.BcastStage(coll.BcastLinear), Procs: p, MsgBytes: pr.SegmentSize})
	}
	for _, alg := range coll.BcastAlgorithms() {
		st := experiment.BcastThenGatherStage(alg, 256)
		for _, m := range stats.LogSpaceBytes(8192, 4<<20, 10) {
			points = append(points, experiment.Point{Stage: st, Procs: pr.Nodes / 2, MsgBytes: m, SegSize: pr.SegmentSize})
		}
	}
	return points
}

// BenchmarkArrivalOrderSurvey reports how often, and by how much, receive
// ports serve a transfer after one that arrived later, on the grids the
// reproduction runs: the quiet Grisou calibration (size skew alone), the
// same calibration on GrisouDualSocket, FuzzGuidelines' seed corpus and
// `reproduce robustness`' perturbation grid. It is a survey, not a gate:
// the numbers size the simulator-contract fix (EXPERIMENTS.md), and the
// robustness grid alone takes minutes on the scheduler engine, so it runs
// only when asked for:
//
//	go test -run '^$' -bench ArrivalOrderSurvey -benchtime 1x ./internal/guideline/
func BenchmarkArrivalOrderSurvey(b *testing.B) {
	survey := func(name string, f func(b *testing.B) string) {
		b.Run(name, func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				out = f(b)
			}
			b.Log(out)
		})
	}
	survey("calibration/grisou", func(b *testing.B) string {
		return surveyPoints(b, cluster.Grisou(), calibrationPoints(cluster.Grisou())).String()
	})
	survey("calibration/grisou2", func(b *testing.B) string {
		return surveyPoints(b, cluster.GrisouDualSocket(), calibrationPoints(cluster.GrisouDualSocket())).String()
	})
	survey("fuzzguidelines-seeds", func(b *testing.B) string {
		// FuzzGuidelines' f.Add corpus, mapped to profiles and points the
		// way its body does.
		seeds := []struct {
			nodes, ppn          uint8
			latMicro            uint16
			bwSel               uint8
			seed                int64
			pertCent, pSel, mSc uint8
		}{
			{8, 1, 20, 2, 1, 0, 4, 4},
			{5, 2, 3, 0, 7, 40, 2, 16},
			{12, 1, 100, 3, 42, 100, 6, 1},
			{4, 3, 55, 1, -3, 75, 3, 63},
			{10, 2, 7, 2, 1001, 25, 8, 8},
		}
		total, lines := &arrivalOrder{}, ""
		for _, s := range seeds {
			n := 3 + int(s.nodes)%10
			lat := (1 + float64(s.latMicro%200)) * 1e-6
			bw := []float64{1e8, 1e9, 2.5e9, 1e10}[int(s.bwSel)%4]
			pr, err := cluster.Custom("fuzz", n, lat, bw)
			if err != nil {
				b.Fatal(err)
			}
			pr.Net.NoiseAmplitude = 0
			if p := 1 + int(s.ppn)%3; p > 1 {
				pr.Net.ProcsPerNode = p
				pr.Net.IntraNodeLatency = lat / 20
				pr.Net.IntraNodeByteTime = 1e-10
			}
			if intensity := float64(s.pertCent%101) / 100; intensity > 0 {
				pr = pr.Perturbed(perturb.Random(s.seed, intensity, pr.Net.NICs()))
			}
			procs := 2 + int(s.pSel)%(n-1)
			cfg := Config{Profile: pr, Procs: procs, MsgBytes: procs * (1 + int(s.mSc)%64) * 128}
			var points []experiment.Point
			for _, g := range Invariant() {
				if !g.AppliesTo(cfg) {
					continue
				}
				for _, r := range []Recipe{g.Left, g.Right} {
					pts, err := r.Points(cfg, nil)
					if err != nil {
						b.Fatal(err)
					}
					points = append(points, pts...)
				}
			}
			c := surveyPoints(b, pr, points)
			lines += fmt.Sprintf("seed %v: %v\n", s, c)
			total.add(c)
		}
		return lines + "all seeds: " + total.String()
	})
	// reproduce robustness: models fitted on the quiet cluster are scored
	// on perturb.Random(1, ε) at the Table 3 P, for every algorithm and
	// Open MPI's choice at each paper size.
	for _, tc := range []struct {
		pr cluster.Profile
		p  int
	}{{cluster.Grisou(), 90}, {cluster.Gros(), 100}} {
		survey("robustness/"+tc.pr.Name, func(b *testing.B) string {
			lines := ""
			sizes := stats.LogSpaceBytes(8192, 4<<20, 10)
			for _, eps := range []float64{0, 0.25, 0.5, 0.75, 1} {
				prp := tc.pr.Perturbed(perturb.Random(1, eps, tc.pr.Net.NICs()))
				points := experiment.BcastGrid(tc.p, coll.BcastAlgorithms(), sizes, tc.pr.SegmentSize)
				for _, m := range sizes {
					oc := selection.OpenMPIFixed(tc.p, m)
					points = append(points, experiment.Point{Stage: experiment.BcastStage(oc.Alg), Procs: tc.p, MsgBytes: m, SegSize: oc.SegSize})
				}
				lines += fmt.Sprintf("P=%d ε=%.2f: %v\n", tc.p, eps, surveyPoints(b, prp, points))
			}
			return lines
		})
	}
}
