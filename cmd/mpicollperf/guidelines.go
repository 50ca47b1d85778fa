package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/guideline"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
)

// runVerifyGuidelines is the `mpicollperf verify-guidelines` subcommand:
// it fans the built-in guideline registry out over a platform ×
// perturbation × (P, m) grid, renders the per-guideline summary, writes
// the structured JSON artifact, and fails (non-zero exit) when any
// guideline is violated — the shape `make guidelines` gates CI on.
func runVerifyGuidelines(args []string) error {
	fs := flag.NewFlagSet("verify-guidelines", flag.ContinueOnError)
	clusterFlag := fs.String("cluster", "both", "grisou, gros or both")
	quick := fs.Bool("quick", false, "reduced grid for a fast smoke gate")
	procsFlag := fs.String("procs", "", "comma-separated communicator sizes (default 4,8,16)")
	sizesFlag := fs.String("sizes", "", "comma-separated message sizes in bytes (default 1024,16384,131072,1048576)")
	perturbations := fs.Int("perturbations", 2, "random perturbed platforms per cluster (deterministic from -seed)")
	perturbFlag := fs.String("perturb", "", "additional explicit perturbation spec to compose onto every cluster")
	seed := fs.Int64("seed", 1, "seed for the random perturbations")
	intensity := fs.Float64("intensity", 0.5, "intensity of the random perturbations in (0, 1]")
	engineFlag := fs.String("engine", "auto", "execution engine: auto, scheduler, replay")
	workers := fs.Int("workers", 0, "concurrent measurements (0 = GOMAXPROCS, 1 = serial)")
	outPath := fs.String("out", "results/guidelines.json", "path of the JSON artifact (empty = skip)")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var profiles []cluster.Profile
	names := []string{"grisou", "gros"}
	if *clusterFlag != "both" {
		names = []string{*clusterFlag}
	}
	for _, name := range names {
		pr, err := cluster.ByName(name)
		if err != nil {
			return err
		}
		if pr.Nodes > 16 {
			if pr, err = pr.WithNodes(16); err != nil {
				return err
			}
		}
		profiles = append(profiles, pr)
	}

	engine, err := experiment.ParseEngine(*engineFlag)
	if err != nil {
		return err
	}
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1, Engine: engine}

	h := guideline.Harness{
		Profiles:            profiles,
		RandomPerturbations: *perturbations,
		Seed:                *seed,
		Intensity:           *intensity,
		Settings:            set,
		Workers:             *workers,
		Metrics:             obs.NewRegistry(),
	}
	if *procsFlag != "" {
		if h.Procs, err = parseIntList(*procsFlag); err != nil {
			return fmt.Errorf("-procs: %w", err)
		}
	}
	if *sizesFlag != "" {
		if h.Sizes, err = parseIntList(*sizesFlag); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
	}
	if *perturbFlag != "" {
		spec, err := perturb.Parse(*perturbFlag)
		if err != nil {
			return err
		}
		h.Perturbations = append(h.Perturbations, spec)
	}
	if *quick {
		h.Profiles = profiles[:1]
		h.RandomPerturbations = 1
		if h.Procs == nil {
			h.Procs = []int{4, 8}
		}
		if h.Sizes == nil {
			h.Sizes = []int{1 << 10, 64 << 10}
		}
	}

	rep, err := h.Run(context.Background())
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	if *outPath != "" {
		if err := rep.WriteJSON(*outPath); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", *outPath)
	}
	if *metricsPath != "" {
		if err := h.Metrics.WriteJSONFile(*metricsPath); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", *metricsPath)
	}
	if viol := rep.Violations(); len(viol) > 0 {
		return fmt.Errorf("%d of %d guideline checks violated", len(viol), len(rep.Checks))
	}
	fmt.Printf("%d checks across %d families: all guidelines hold\n", len(rep.Checks), rep.FamilyCount())
	return nil
}

func parseIntList(spec string) ([]int, error) {
	fields := strings.Split(spec, ",")
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}
