package simnet

import "testing"

// TestResetFastPathPreservesDeterminism checks that Reset — on a pristine
// network, after draws, back to back — always leaves the jitter stream
// rewound to its first factor and every port idle.
func TestResetFastPathPreservesDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 77
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []float64 { return append([]float64(nil), n.Jitter(16)...) }
	n.Reset() // pristine network: must leave it pristine
	first := draw()
	n.Reset() // consumed draws: must rewind
	n.Reset() // back to back: still rewound
	second := draw()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("draw %d after Reset: %v != %v", i, second[i], first[i])
		}
	}

	// Reset must clear port state too.
	if _, err := n.Transmit(0, 1, 4096, 0); err != nil {
		t.Fatal(err)
	}
	tr1, err := n.Transmit(0, 1, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.StartTx == cfg.SendOverhead {
		t.Fatal("second transfer did not queue behind the first")
	}
	n.Reset()
	tr2, err := n.Transmit(0, 1, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.StartTx != cfg.SendOverhead {
		t.Fatalf("post-Reset transfer StartTx = %v, want %v (idle port)", tr2.StartTx, cfg.SendOverhead)
	}
	if n.Transfers() != 1 {
		t.Fatalf("Transfers() = %d after Reset+1, want 1", n.Transfers())
	}
}
