package simnet

import (
	"math/rand"
	"testing"

	"mpicollperf/internal/perturb"
)

func portsConfig(procs int) Config {
	return Config{
		Nodes:             procs,
		Latency:           20e-6,
		ByteTimeSend:      1e-9,
		ByteTimeRecv:      1e-9,
		SendOverhead:      1e-6,
		RecvOverhead:      1e-6,
		ProcsPerNode:      2,
		IntraNodeLatency:  1e-6,
		IntraNodeByteTime: 1e-10,
	}
}

// TestPortArraysSizedByNICs pins the port-array sizing: ports exist per
// physical NIC (ceil(Nodes/ProcsPerNode)), not per process endpoint.
func TestPortArraysSizedByNICs(t *testing.T) {
	cfg := portsConfig(10)
	if got := cfg.NICs(); got != 5 {
		t.Fatalf("NICs() = %d, want 5", got)
	}
	cfg.Nodes = 9 // odd endpoint count: last node half-populated
	if got := cfg.NICs(); got != 5 {
		t.Fatalf("NICs() = %d for 9 endpoints, want 5", got)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.ports.sendFree) != 5 || len(n.ports.recvFree) != 5 {
		t.Fatalf("port arrays sized %d/%d, want 5 (NIC count)", len(n.ports.sendFree), len(n.ports.recvFree))
	}
	p, err := n.NewPorts(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NICs() != 5 {
		t.Fatalf("Ports has %d NICs per lane, want 5", p.NICs())
	}
	if len(p.sendFree) != 15 || len(p.recvFree) != 15 {
		t.Fatalf("lane stripes sized %d/%d, want 15", len(p.sendFree), len(p.recvFree))
	}
}

// TestPortsTransmitMatchesNetwork drives the same randomized transfer
// sequence through Network.Transmit and Ports.Transmit and asserts
// bit-identical send-completion and delivery times, on quiet, perturbed
// and co-located configs: the replay engine's wrapper draws its jitter in
// the scheduler's order, times local transfers and perturbed links alike,
// and never drifts from the scheduler's reservation.
func TestPortsTransmitMatchesNetwork(t *testing.T) {
	perturbed := &perturb.Spec{
		Stragglers: []perturb.Straggler{{Node: 1, Compute: 1.5, NIC: 2}},
		Links:      []perturb.LinkRule{{Src: 0, Dst: 2, Latency: 3, Bandwidth: 1.7}},
	}
	cases := []struct {
		name  string
		procs int
		ppn   int
		spec  *perturb.Spec
	}{
		{"dual-socket", 8, 2, nil},
		{"one-per-node", 8, 1, nil},
		{"perturbed", 8, 1, perturbed},
		{"perturbed-dual-socket", 8, 2, perturbed},
		{"dual-socket-odd", 9, 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := portsConfig(tc.procs)
			cfg.ProcsPerNode = tc.ppn
			cfg.NoiseAmplitude = 0.05
			cfg.NoiseSeed = 99
			cfg.Perturb = tc.spec
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ports, err := net.NewPorts(1)
			if err != nil {
				t.Fatal(err)
			}
			// A twin network's stream yields the factors a fresh stream
			// with the same seed and distribution produces, in order;
			// inter-NIC transfers of positive size consume them one at a
			// time.
			twin, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			order := rand.New(rand.NewSource(7))
			now := 0.0
			for i := 0; i < 400; i++ {
				src := order.Intn(cfg.Nodes)
				dst := order.Intn(cfg.Nodes)
				if src == dst {
					continue
				}
				bytes := order.Intn(1 << 16)
				if i%17 == 0 {
					bytes = 0
				}
				tr, err := net.Transmit(src, dst, bytes, now)
				if err != nil {
					t.Fatal(err)
				}
				lt := net.TimingFor(src, dst, bytes)
				jitter := 1.0
				if !lt.Local && lt.TxTime > 0 {
					jitter = twin.Jitter(1)[0]
				}
				sc, delivered := ports.Transmit(0, cfg.NIC(src), cfg.NIC(dst), lt, now, jitter)
				if sc != tr.SendComplete || delivered != tr.Delivered {
					t.Fatalf("transfer %d (%d->%d, %dB): ports %x/%x, network %x/%x",
						i, src, dst, bytes, sc, delivered, tr.SendComplete, tr.Delivered)
				}
				// Non-decreasing issue times, as the scheduler guarantees.
				now += float64(order.Intn(3)) * 1e-6
			}
			if len(net.memo) != len(twin.memo) {
				t.Fatalf("network drew %d factors, the wrapper's callers %d", len(net.memo), len(twin.memo))
			}
		})
	}
}

// TestPortsLanesAreIndependent checks that NewPorts' lane stripes each
// start from the network's port state and never see each other's
// transfers.
func TestPortsLanesAreIndependent(t *testing.T) {
	net, err := New(portsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Transmit(0, 2, 1<<12, 0); err != nil {
		t.Fatal(err)
	}
	single, err := net.NewPorts(1)
	if err != nil {
		t.Fatal(err)
	}
	double, err := net.NewPorts(2)
	if err != nil {
		t.Fatal(err)
	}
	lt := LinkTiming{TxTime: 1e-6, RxTime: 1e-6}
	s0, d0 := double.Transmit(0, 0, 1, lt, 0, 1)
	s1, d1 := double.Transmit(1, 0, 1, lt, 0, 1)
	want0, wantD := single.Transmit(0, 0, 1, lt, 0, 1)
	if s0 != want0 || d0 != wantD || s1 != want0 || d1 != wantD {
		t.Fatalf("lanes (%x,%x) and (%x,%x), want both (%x,%x)", s0, d0, s1, d1, want0, wantD)
	}
}

// TestNewPortsValidation covers the lane-count check.
func TestNewPortsValidation(t *testing.T) {
	net, err := New(portsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewPorts(0); err == nil {
		t.Fatal("0 lanes accepted")
	}
}
