package simnet

import (
	"testing"

	"mpicollperf/internal/perturb"
)

// perturbedConfig composes a spec onto the noise-free 8-node test config.
func perturbedConfig(spec *perturb.Spec) Config {
	cfg := testConfig()
	cfg.Perturb = spec
	return cfg
}

// TestTimingForUnperturbedIdentity pins the perturbation layer's
// bit-compatibility contract: with no spec configured, TimingFor returns
// the configuration's exact values — not recomputed ones — so unperturbed
// simulations cannot drift by a ULP.
func TestTimingForUnperturbedIdentity(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const m = 123457
	lt := n.TimingFor(0, 5, m)
	if lt.Local {
		t.Fatal("cross-node transfer marked local")
	}
	if lt.TxTime != float64(m)*cfg.ByteTimeSend ||
		lt.RxTime != float64(m)*cfg.ByteTimeRecv ||
		lt.Latency != cfg.Latency ||
		lt.SendOv != cfg.SendOverhead ||
		lt.RecvOv != cfg.RecvOverhead {
		t.Fatalf("unperturbed TimingFor diverged from config: %+v", lt)
	}
	if !n.ReplayInvariant() {
		t.Fatal("unperturbed network must be replay-invariant")
	}
}

func TestStragglerSlowsOnlyItsNode(t *testing.T) {
	spec := &perturb.Spec{Stragglers: []perturb.Straggler{{Node: 2, Compute: 3, NIC: 2}}}
	cfg := perturbedConfig(spec)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const m = 1 << 16
	// Straggler as sender: overhead ×3, injection byte time ×2.
	lt := n.TimingFor(2, 5, m)
	if lt.SendOv != 3*cfg.SendOverhead {
		t.Errorf("straggler SendOv = %v, want %v", lt.SendOv, 3*cfg.SendOverhead)
	}
	if lt.TxTime != 2*float64(m)*cfg.ByteTimeSend {
		t.Errorf("straggler TxTime = %v, want %v", lt.TxTime, 2*float64(m)*cfg.ByteTimeSend)
	}
	// Straggler as receiver: drain byte time ×2, recv overhead ×3.
	lt = n.TimingFor(5, 2, m)
	if lt.RxTime != 2*float64(m)*cfg.ByteTimeRecv || lt.RecvOv != 3*cfg.RecvOverhead {
		t.Errorf("straggler receive timing = %+v", lt)
	}
	// Uninvolved pair: exactly the quiet platform.
	lt = n.TimingFor(4, 7, m)
	if lt.TxTime != float64(m)*cfg.ByteTimeSend || lt.SendOv != cfg.SendOverhead {
		t.Errorf("uninvolved link perturbed: %+v", lt)
	}
	if !n.ReplayInvariant() {
		t.Fatal("straggler spec must be replay-invariant")
	}
	if got := n.SendOverheadOf(2); got != 3*cfg.SendOverhead {
		t.Errorf("SendOverheadOf(2) = %v", got)
	}
	if got := n.SendOverheadOf(3); got != cfg.SendOverhead {
		t.Errorf("SendOverheadOf(3) = %v", got)
	}
}

func TestStragglersComposeMultiplicatively(t *testing.T) {
	spec := &perturb.Spec{Stragglers: []perturb.Straggler{
		{Node: 1, NIC: 2},
		{Node: 1, NIC: 3},
	}}
	cfg := perturbedConfig(spec)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const m = 4096
	lt := n.TimingFor(1, 0, m)
	if lt.TxTime != 6*float64(m)*cfg.ByteTimeSend {
		t.Errorf("stacked stragglers TxTime = %v, want ×6", lt.TxTime)
	}
}

func TestLinkRuleIsDirectional(t *testing.T) {
	spec := &perturb.Spec{Links: []perturb.LinkRule{{Src: 0, Dst: 1, Latency: 3, Bandwidth: 4}}}
	cfg := perturbedConfig(spec)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const m = 8192
	lt := n.TimingFor(0, 1, m)
	if lt.Latency != 3*cfg.Latency {
		t.Errorf("degraded link latency = %v, want %v", lt.Latency, 3*cfg.Latency)
	}
	if lt.TxTime != 4*float64(m)*cfg.ByteTimeSend {
		t.Errorf("degraded link TxTime = %v, want ×4", lt.TxTime)
	}
	// The reverse direction is untouched.
	back := n.TimingFor(1, 0, m)
	if back.Latency != cfg.Latency || back.TxTime != float64(m)*cfg.ByteTimeSend {
		t.Errorf("reverse direction perturbed: %+v", back)
	}
}

func TestBrownoutWindow(t *testing.T) {
	// A brownout that collapses 0->1 bandwidth by 100× during
	// [1ms, 2ms): transfers starting inside the window crawl, transfers
	// before and after run at full speed.
	spec := &perturb.Spec{Brownouts: []perturb.Brownout{
		{Src: 0, Dst: 1, Start: 1e-3, End: 2e-3, Bandwidth: 100},
	}}
	cfg := perturbedConfig(spec)
	const m = 1 << 16
	base := float64(m) * cfg.ByteTimeSend

	// Compare absolute completion times (SendComplete is StartTx + txTime
	// computed in float; recomputing the same sum keeps the check
	// bit-exact).
	txAt := func(now float64, want float64) {
		t.Helper()
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := n.Transmit(0, 1, m, now)
		if err != nil {
			t.Fatal(err)
		}
		if tr.SendComplete != tr.StartTx+want {
			t.Errorf("transfer at t=%v: tx = %v, want %v", now, tr.SendComplete-tr.StartTx, want)
		}
	}
	txAt(0, base)          // before the window
	txAt(1.5e-3, 100*base) // inside: bandwidth collapsed 100×
	txAt(2.5e-3, base)     // after: recovered

	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.ReplayInvariant() {
		t.Fatal("brownout network must not be replay-invariant")
	}
	// The other direction, and other links, never brown out.
	tr, err := n.Transmit(1, 0, m, 1.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SendComplete != tr.StartTx+base {
		t.Error("reverse direction browned out")
	}
}

// TestPerturbedDeterminism: same config ⇒ bit-identical transfer stream,
// even with jitter and a full perturbation stack.
func TestPerturbedDeterminism(t *testing.T) {
	spec, err := perturb.Parse("straggler:node=0,cpu=2,nic=1.5;link:src=1,dst=2,lat=2,bw=3;jitter:pareto,alpha=1.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := perturbedConfig(spec)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 42

	run := func() []float64 {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		now := 0.0
		for i := 0; i < 50; i++ {
			tr, err := n.Transmit(i%4, (i+1)%4, 1000*(i+1), now)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tr.Delivered)
			now = tr.StartTx
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transfer %d diverged: %x != %x", i, a[i], b[i])
		}
	}
}

// TestPerturbValidateAtNew asserts that New rejects a spec that refers to
// nodes outside the cluster.
func TestPerturbValidateAtNew(t *testing.T) {
	cfg := perturbedConfig(&perturb.Spec{Stragglers: []perturb.Straggler{{Node: 99, NIC: 2}}})
	if _, err := New(cfg); err == nil {
		t.Fatal("New must reject out-of-range straggler node")
	}
}
