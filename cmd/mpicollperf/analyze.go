package main

import (
	"flag"
	"fmt"
	"io"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/trace"
)

// runAnalyze is the `mpicollperf analyze` subcommand: one noise-free
// traced broadcast, explained as per-port bottlenecks, a send-port
// timeline and the critical path.
func runAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	clusterName := fs.String("cluster", "grisou", "cluster profile (grisou, gros)")
	np := fs.Int("np", 16, "number of processes")
	algName := fs.String("alg", "binomial", "broadcast algorithm")
	m := fs.Int("m", 1<<20, "message size in bytes")
	seg := fs.Int("seg", 0, "segment size (default: platform's 8 KB)")
	width := fs.Int("width", 72, "timeline width in characters")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *m < 0 || *seg < 0 {
		return fmt.Errorf("need -m >= 0 and -seg >= 0")
	}
	pr, err := cluster.ByName(*clusterName)
	if err != nil {
		return err
	}
	if *np < 2 || *np > pr.Nodes {
		return fmt.Errorf("np %d outside 2..%d", *np, pr.Nodes)
	}
	if *seg == 0 {
		*seg = pr.SegmentSize
	}
	alg, err := coll.ParseBcastAlgorithm(*algName)
	if err != nil {
		return err
	}
	// Noise off: a single traced run should be the platonic execution.
	pr.Net.NoiseAmplitude = 0
	net, err := pr.Network()
	if err != nil {
		return err
	}
	col := trace.Attach(net)
	res, err := mpi.RunOn(net, *np, func(p *mpi.Proc) error {
		coll.Bcast(p, alg, 0, coll.Synthetic(*m), *seg)
		return nil
	}, mpi.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%v broadcast of %d B over %d ranks on %s (segment %d B)\n",
		alg, *m, *np, pr.Name, *seg)
	fmt.Fprintf(out, "completion: %.6f s\n\n", res.MakeSpan)
	fmt.Fprint(out, col.Analyze().Render())
	fmt.Fprintln(out)
	fmt.Fprint(out, col.Timeline(*width))
	fmt.Fprintln(out)
	path := col.CriticalPath()
	fmt.Fprintf(out, "critical path (%d hops):\n", len(path))
	for _, tr := range path {
		fmt.Fprintf(out, "  %3d -> %3d  %7d B  issued %.6f  delivered %.6f\n",
			tr.Src, tr.Dst, tr.Bytes, tr.Issued, tr.Delivered)
	}
	return nil
}
