package simnet

import (
	"math/rand"
	"testing"
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
	if len(n.sendFree) != 5 || len(n.recvFree) != 5 {
		t.Fatalf("port arrays sized %d/%d, want 5 (NIC count)", len(n.sendFree), len(n.recvFree))
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
// sequence through Network.Transmit and Ports.Transmit/TransmitLocal and
// asserts bit-identical send-completion and delivery times — the
// arithmetic the replay engine depends on never drifting from the
// scheduler's.
func TestPortsTransmitMatchesNetwork(t *testing.T) {
	cfg := portsConfig(8)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 99
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ports, err := net.NewPorts(1)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-draw the jitter a fresh stream with the same seed will produce,
	// in order; inter-NIC transfers consume it one factor at a time.
	rng := rand.New(rand.NewSource(cfg.NoiseSeed))
	order := rand.New(rand.NewSource(7))
	now := 0.0
	for i := 0; i < 200; i++ {
		src := order.Intn(cfg.Nodes)
		dst := order.Intn(cfg.Nodes)
		if src == dst {
			continue
		}
		bytes := order.Intn(1 << 16)
		tr, err := net.Transmit(src, dst, bytes, now)
		if err != nil {
			t.Fatal(err)
		}
		var sc, delivered float64
		lt := net.TimingFor(src, dst, bytes)
		if lt.Local {
			sc, delivered = ports.TransmitLocal(lt, now)
		} else {
			jitter := 1.0
			if lt.TxTime > 0 {
				jitter = 1 + cfg.NoiseAmplitude*rng.Float64()
			}
			sc, delivered = ports.Transmit(0, cfg.NIC(src), cfg.NIC(dst), lt, now, jitter)
		}
		if sc != tr.SendComplete || delivered != tr.Delivered {
			t.Fatalf("transfer %d (%d->%d, %dB): ports %x/%x, network %x/%x",
				i, src, dst, bytes, sc, delivered, tr.SendComplete, tr.Delivered)
		}
		// Non-decreasing issue times, as the scheduler guarantees.
		now += float64(order.Intn(3)) * 1e-6
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
