package simnet

import (
	"math/rand"
	"testing"

	"mpicollperf/internal/perturb"
)

// jitterConfigs are noisy platforms under each jitter distribution: the
// unperturbed uniform model and the perturbed exponential and Pareto
// ones.
func jitterConfigs() map[string]Config {
	base := testConfig()
	base.NoiseAmplitude = 0.04
	base.NoiseSeed = 123
	exp, pareto := base, base
	exp.Perturb = &perturb.Spec{Jitter: perturb.JitterExponential}
	pareto.Perturb = &perturb.Spec{Jitter: perturb.JitterPareto, ParetoAlpha: 1.5}
	return map[string]Config{"uniform": base, "exponential": exp, "pareto": pareto}
}

// freshStream returns the first n factors of cfg's noise stream computed
// from scratch: a new generator on NoiseSeed, each draw mapped through
// the configured distribution.
func freshStream(cfg Config, n int) []float64 {
	rng := rand.New(rand.NewSource(cfg.NoiseSeed))
	dist, alpha := perturb.JitterUniform, 2.0
	if cfg.Perturb != nil {
		dist = cfg.Perturb.Jitter
		if cfg.Perturb.ParetoAlpha != 0 {
			alpha = cfg.Perturb.ParetoAlpha
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = dist.Factor(cfg.NoiseAmplitude, alpha, rng.Float64())
	}
	return out
}

// TestJitterMatchesFreshStream reads the memoised stream in chunks of
// random length, rewinding at random points, and checks every factor
// against a fresh stream at the same offset, bit for bit. The reads
// outrun the memo several times, so extension is covered as well as
// rewound reads.
func TestJitterMatchesFreshStream(t *testing.T) {
	for name, cfg := range jitterConfigs() {
		t.Run(name, func(t *testing.T) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := freshStream(cfg, 400)
			order := rand.New(rand.NewSource(5))
			pos, longest := 0, 0
			for i := 0; i < 60; i++ {
				if order.Intn(4) == 0 {
					n.Reset()
					pos = 0
				}
				k := order.Intn(min(40, len(ref)-pos) + 1)
				got := n.Jitter(k)
				if len(got) != k {
					t.Fatalf("Jitter(%d) returned %d factors", k, len(got))
				}
				for j, f := range got {
					if f != ref[pos+j] {
						t.Fatalf("factor %d = %x, fresh stream %x", pos+j, f, ref[pos+j])
					}
				}
				pos += k
				longest = max(longest, pos)
			}
			if longest != len(n.memo) {
				t.Fatalf("memo holds %d factors, furthest read was %d", len(n.memo), longest)
			}
		})
	}
}

// TestJitterNoiseFree pins the noise-free stream: every factor is 1.
func TestJitterNoiseFree(t *testing.T) {
	n, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range n.Jitter(8) {
		if f != 1 {
			t.Fatalf("noise-free factor %d = %v, want 1", i, f)
		}
	}
}

// TestResetTransmitMatchesRebuiltNetwork runs transfer sequences of
// different lengths on one network, Reset between them, and checks each
// against the same sequence on a network rebuilt for that run: rewinding
// the memo must be indistinguishable from a fresh seeded stream.
func TestResetTransmitMatchesRebuiltNetwork(t *testing.T) {
	for name, cfg := range jitterConfigs() {
		t.Run(name, func(t *testing.T) {
			reused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for run, length := range []int{30, 120, 10, 200, 200} {
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reused.Reset()
				order := rand.New(rand.NewSource(int64(run)))
				now := 0.0
				for i := 0; i < length; i++ {
					src, dst := order.Intn(cfg.Nodes), order.Intn(cfg.Nodes)
					if src == dst {
						continue
					}
					bytes := order.Intn(1 << 16)
					want, err := fresh.Transmit(src, dst, bytes, now)
					if err != nil {
						t.Fatal(err)
					}
					got, err := reused.Transmit(src, dst, bytes, now)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("run %d transfer %d: %+v, rebuilt network %+v", run, i, got, want)
					}
					now += float64(order.Intn(3)) * 1e-6
				}
			}
		})
	}
}
