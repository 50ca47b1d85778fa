package perturb

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestParseNone(t *testing.T) {
	for _, text := range []string{"", "none", "  none  "} {
		spec, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if spec != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", text, spec)
		}
		if !spec.Empty() || !spec.TimeInvariant() || spec.Validate(4) != nil {
			t.Fatalf("nil spec must be empty, time-invariant and valid")
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"straggler:node=3,cpu=1.5,nic=2",
		"straggler:node=0,cpu=1,nic=1",
		"link:src=0,dst=5,lat=3,bw=4",
		"brownout:src=0,dst=1,start=0.001,end=0.002,bw=50",
		"jitter:pareto,alpha=1.5",
		"jitter:exponential",
		"straggler:node=1,cpu=2,nic=1;link:src=2,dst=3,lat=1,bw=2;jitter:pareto,alpha=2",
	}
	for _, text := range specs {
		spec, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", text, spec.String(), err)
		}
		if spec.String() != again.String() {
			t.Fatalf("round trip of %q: %q != %q", text, spec.String(), again.String())
		}
	}
}

// TestParseJitterClause is the regression test for the jitter clause's
// grammar: it leads with a bare distribution name, not a key=value pair.
func TestParseJitterClause(t *testing.T) {
	cases := []struct {
		text  string
		dist  JitterDist
		alpha float64
	}{
		{"jitter:uniform", JitterUniform, 0},
		{"jitter:exponential", JitterExponential, 0},
		{"jitter:pareto", JitterPareto, 0},
		{"jitter:pareto,alpha=1.5", JitterPareto, 1.5},
		{"jitter: pareto , alpha=2", JitterPareto, 2},
	}
	for _, c := range cases {
		spec, err := Parse(c.text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.text, err)
		}
		if spec.Jitter != c.dist || spec.ParetoAlpha != c.alpha {
			t.Fatalf("Parse(%q) = dist %v alpha %v, want %v %v",
				c.text, spec.Jitter, spec.ParetoAlpha, c.dist, c.alpha)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{
		"straggler:cpu=2",              // missing node
		"straggler:node=1,turbo=2",     // unknown key
		"straggler:node=x",             // not an integer
		"link:src=0",                   // missing dst
		"link:src=0,dst=1,bw",          // not key=value
		"brownout:src=0,start=0,end=1", // missing dst
		"jitter:gaussian",              // unknown distribution
		"jitter:pareto,tail=2",         // unknown key
		"meteor:strike=1",              // unknown clause kind
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q): expected error", text)
		}
	}
}

func TestValidate(t *testing.T) {
	valid := &Spec{
		Stragglers: []Straggler{{Node: 3, Compute: 1.5, NIC: 2}},
		Links:      []LinkRule{{Src: 0, Dst: 1, Latency: 2, Bandwidth: 3}},
		Brownouts:  []Brownout{{Src: 1, Dst: 0, Start: 0, End: 1e-3, Bandwidth: 10}},
		Jitter:     JitterPareto,
	}
	if err := valid.Validate(4); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []*Spec{
		{Stragglers: []Straggler{{Node: 4}}},                                       // node out of range
		{Stragglers: []Straggler{{Node: 0, Compute: -1}}},                          // negative factor
		{Stragglers: []Straggler{{Node: 0, NIC: math.NaN()}}},                      // NaN factor
		{Links: []LinkRule{{Src: 0, Dst: 4}}},                                      // dst out of range
		{Links: []LinkRule{{Src: 2, Dst: 2}}},                                      // self-link
		{Links: []LinkRule{{Src: 0, Dst: 1, Bandwidth: math.Inf(1)}}},              // infinite factor
		{Brownouts: []Brownout{{Src: 0, Dst: 1, Start: 1, End: 1, Bandwidth: 2}}},  // empty window
		{Brownouts: []Brownout{{Src: 0, Dst: 1, Start: -1, End: 1, Bandwidth: 2}}}, // negative start
		{Brownouts: []Brownout{{Src: 0, Dst: 1, Start: 0, End: 1}}},                // zero bandwidth factor
		{Jitter: JitterDist(9)},                                                    // unknown distribution
		{ParetoAlpha: -1},                                                          // negative alpha
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestTimeInvariant(t *testing.T) {
	ti := &Spec{Stragglers: []Straggler{{Node: 0, NIC: 2}}, Jitter: JitterPareto}
	if !ti.TimeInvariant() {
		t.Fatal("straggler+jitter spec must be time-invariant")
	}
	tv := &Spec{Brownouts: []Brownout{{Src: 0, Dst: 1, Start: 0, End: 1, Bandwidth: 2}}}
	if tv.TimeInvariant() {
		t.Fatal("brownout spec must not be time-invariant")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(7, 0.6, 32)
	b := Random(7, 0.6, 32)
	if a == nil || b == nil {
		t.Fatal("Random returned nil for positive intensity")
	}
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if Random(8, 0.6, 32).String() == a.String() {
		t.Fatal("different seeds produced the same spec")
	}
	if !a.TimeInvariant() {
		t.Fatal("Random specs must be brownout-free (replay-safe)")
	}
	if err := a.Validate(32); err != nil {
		t.Fatalf("Random spec invalid: %v", err)
	}
}

func TestRandomEdgeCases(t *testing.T) {
	if Random(1, 0, 32) != nil {
		t.Fatal("intensity 0 must yield nil")
	}
	if Random(1, -1, 32) != nil {
		t.Fatal("negative intensity must yield nil")
	}
	if Random(1, 0.5, 1) != nil {
		t.Fatal("single-node cluster must yield nil")
	}
	// Intensity above 1 clamps rather than exploding.
	s := Random(1, 5, 8)
	if s == nil {
		t.Fatal("clamped intensity must still perturb")
	}
	if err := s.Validate(8); err != nil {
		t.Fatal(err)
	}
	// Heavy intensity switches to a Pareto tail.
	if s.Jitter != JitterPareto {
		t.Fatalf("intensity 1 jitter = %v, want pareto", s.Jitter)
	}
}

func TestJitterFactor(t *testing.T) {
	const amp = 0.03
	// Uniform is bit-identical to the legacy 1 + amplitude·u expression.
	for _, u := range []float64{0, 0.25, 0.5, 0.999} {
		if got, want := JitterUniform.Factor(amp, 0, u), 1+amp*u; got != want {
			t.Fatalf("uniform Factor(%v) = %x, want %x", u, got, want)
		}
	}
	// Every distribution maps u=0 to exactly 1 (no slowdown) and is
	// non-decreasing in u.
	for _, d := range []JitterDist{JitterUniform, JitterExponential, JitterPareto} {
		if f := d.Factor(amp, 2, 0); f != 1 {
			t.Fatalf("%v Factor(0) = %v, want 1", d, f)
		}
		prev := 0.0
		for u := 0.0; u < 1; u += 0.01 {
			f := d.Factor(amp, 2, u)
			if f < prev {
				t.Fatalf("%v not monotone at u=%v", d, u)
			}
			if f < 1 || math.IsNaN(f) {
				t.Fatalf("%v Factor(%v) = %v out of range", d, u, f)
			}
			prev = f
		}
	}
	// Pareto's tail is heavier than exponential's, which is heavier than
	// uniform's bounded one.
	u := 0.999
	if !(JitterPareto.Factor(amp, 1.5, u) > JitterExponential.Factor(amp, 0, u)) ||
		!(JitterExponential.Factor(amp, 0, u) > JitterUniform.Factor(amp, 0, u)) {
		t.Fatal("tail ordering violated")
	}
	// Alpha below 1 clamps to 1 instead of diverging harder.
	if JitterPareto.Factor(amp, 0.5, 0.9) != JitterPareto.Factor(amp, 1, 0.9) {
		t.Fatal("alpha < 1 must clamp to 1")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	// Specs are part of measurement-cache keys; they must serialise
	// faithfully, and the empty spec must serialise compactly.
	spec, err := Parse("straggler:node=1,cpu=2,nic=3;brownout:src=0,dst=1,start=0,end=0.5,bw=9;jitter:pareto,alpha=1.75")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != spec.String() {
		t.Fatalf("JSON round trip: %q != %q", back.String(), spec.String())
	}
	if blob, _ := json.Marshal(&Spec{}); string(blob) != "{}" {
		t.Fatalf("empty spec serialises to %s, want {}", blob)
	}
}

func TestStringEmpty(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.String() != "none" || (&Spec{}).String() != "none" {
		t.Fatal("empty specs must render as \"none\"")
	}
	if s, _ := Parse("jitter:pareto,alpha=1.5"); !strings.Contains(s.String(), "pareto") {
		t.Fatal("pareto jitter must appear in String()")
	}
}
