package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"defined/internal/topology"
	"defined/internal/vtime"
)

// smallHierSpec is a complete mixed-protocol scenario on a small
// hierarchy; tests that need a valid spec start from it.
func smallHierSpec() Spec {
	return Spec{
		Name: "test-hier",
		Topology: TopologyRef{
			Kind: "hier",
			Hier: &topology.HierConfig{
				ASes: 4, ASDegree: 1,
				MinRouters: 4, MaxRouters: 8, RouterDegree: 2,
				StubFrac: 1.0, StubLen: 2,
				Seed: 7,
			},
		},
		Protocols: ProtocolSpec{
			OSPF: &OSPFSpec{},
			BGP:  &BGPSpec{},
			RIP:  &RIPSpec{UpdateInterval: Dur(5 * vtime.Second)},
		},
		Horizon: HorizonSpec{Run: Duration(20 * vtime.Second)},
	}
}

func sprintlinkSpec() Spec {
	return Spec{
		Name:      "test-flat",
		Topology:  TopologyRef{Kind: "sprintlink"},
		Protocols: ProtocolSpec{OSPF: &OSPFSpec{}},
		Horizon:   HorizonSpec{Run: Duration(5 * vtime.Second)},
	}
}

func TestDurationRoundTrip(t *testing.T) {
	cases := []struct {
		v    vtime.Duration
		want string
	}{
		{0, `"0s"`},
		{vtime.Microsecond, `"1us"`},
		{8 * vtime.Millisecond, `"8ms"`},
		{30 * vtime.Second, `"30s"`},
		{90 * vtime.Second, `"90s"`},
		{2 * vtime.Minute, `"2m"`},
		{vtime.Hour, `"1h"`},
		{1_500 * vtime.Microsecond, `"1500us"`},
		{-5 * vtime.Millisecond, `"-5ms"`},
	}
	for _, c := range cases {
		b, err := json.Marshal(Duration(c.v))
		if err != nil {
			t.Fatalf("%v: %v", c.v, err)
		}
		if string(b) != c.want {
			t.Errorf("%d marshals to %s, want %s", int64(c.v), b, c.want)
		}
		var back Duration
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back.V() != c.v {
			t.Errorf("%s round-trips to %d, want %d", b, int64(back.V()), int64(c.v))
		}
	}
	// Rejected inputs: the error names the input, and the value is never a
	// silently different duration ("--5s" used to parse as +5s, "-+5s" as
	// -5s, and the last row wrapped around to -1h).
	for _, bad := range []string{
		`"5 sec"`, `5000`, `"5"`, `"s"`, `"--5s"`, `"-+5s"`, `"+-5s"`,
		`"9223372036854775807h"`, `"-9223372036854775807ms"`,
	} {
		var d Duration
		err := json.Unmarshal([]byte(bad), &d)
		if err == nil {
			t.Errorf("bad duration %s accepted as %d", bad, int64(d))
		} else if bad[0] == '"' && !strings.Contains(err.Error(), bad) {
			t.Errorf("bad duration %s: error %q does not name the input", bad, err)
		}
	}
}

// TestParseSpecRejections: a spec file is one JSON object and nothing
// else, with no field the template does not have.
func TestParseSpecRejections(t *testing.T) {
	good, err := json.Marshal(sprintlinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(append(good, " \n"...)); err != nil {
		t.Fatalf("trailing white space rejected: %v", err)
	}
	for _, c := range []struct{ name, raw, wantErr string }{
		{"trailing garbage", string(good) + " garbage {", "trailing data"},
		{"second object", string(good) + string(good), "trailing data"},
		{"unknown field", `{"name": "x", "workload": {}}`, `unknown field "workload"`},
		{"truncated", string(good[:len(good)-1]), "unexpected EOF"},
	} {
		_, err := ParseSpec([]byte(c.raw))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestResolveExplicitDefaults proves the RunSpec contract: after Resolve,
// no optional field is left nil — every default is written down.
func TestResolveExplicitDefaults(t *testing.T) {
	r, err := smallHierSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	s := r.Spec()
	e := s.Engine
	for name, got := range map[string]bool{
		"baseline":    e.Baseline != nil,
		"seed":        e.Seed != nil,
		"ordering":    e.Ordering != "",
		"strategy":    e.Strategy != "",
		"jitterScale": e.JitterScale != nil,
		"chainBound":  e.ChainBound != nil,
		"settleBound": e.SettleBound != nil,
		"deferral":    e.Deferral != nil,
		"deferSlack":  e.DeferSlack != nil,
		"deferMax":    e.DeferMax != nil,
		"shards":      e.Shards != nil,
		"lookahead":   e.Lookahead != nil,
		"perLinkLoss": e.PerLinkLoss != nil,
		"duplication": e.Duplication != nil,
		"messagePool": e.MessagePool != nil,
		"routeCache":  e.RouteCache != nil,
		"poison":      e.Poison != nil,
		"record":      e.Record != nil,
		"deliveryLog": e.DeliveryLog != nil,
	} {
		if !got {
			t.Errorf("resolved engine spec leaves %s implicit", name)
		}
	}
	if e.Strategy != "TM/MI" || e.Ordering != "OO" {
		t.Errorf("defaults: strategy %q ordering %q, want TM/MI and OO", e.Strategy, e.Ordering)
	}
	if !*e.Deferral || e.DeferSlack.V() != 8*vtime.Millisecond || e.DeferMax.V() != 100*vtime.Millisecond {
		t.Errorf("deferral defaults: %v %v %v", *e.Deferral, e.DeferSlack.V(), e.DeferMax.V())
	}
	if s.Protocols.OSPF.HelloInterval.V() != vtime.Second || s.Protocols.OSPF.DeadInterval.V() != 4*vtime.Second {
		t.Errorf("ospf defaults: hello %v dead %v", s.Protocols.OSPF.HelloInterval.V(), s.Protocols.OSPF.DeadInterval.V())
	}
	if !*s.Horizon.Drain {
		t.Error("horizon drain default not true")
	}
	// Immutability: mutating the accessor's copy, or the plan's engine
	// block, must not leak back.
	*s.Engine.Seed = 999
	if got := *r.Spec().Engine.Seed; got != 0 {
		t.Errorf("RunSpec mutated through Spec() copy: seed %d", got)
	}
	p, err := r.Expand()
	if err != nil {
		t.Fatal(err)
	}
	*p.Engine.Seed, *p.Engine.Deferral = 999, false
	if e := r.Spec().Engine; *e.Seed != 0 || !*e.Deferral {
		t.Errorf("RunSpec mutated through Plan.Engine: seed %d deferral %v", *e.Seed, *e.Deferral)
	}
}

// TestSpecRoundTrip is the committed-file contract: marshal the resolved
// snapshot, re-parse it as a Spec, resolve again — the expanded plans must
// carry identical fingerprints.
func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []Spec{smallHierSpec(), sprintlinkSpec()} {
		r1, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p1, err := r1.Expand()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(r1, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		r2, err := back.Resolve()
		if err != nil {
			t.Fatalf("%s: re-resolve: %v", spec.Name, err)
		}
		p2, err := r2.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if f1, f2 := p1.Fingerprint(), p2.Fingerprint(); f1 != f2 {
			t.Errorf("%s: round-trip changed fingerprint: %#x vs %#x", spec.Name, f1, f2)
		}
	}
}

// TestValidationRejections is the contradiction table: every entry must be
// rejected with a message mentioning both sides of the conflict.
func TestValidationRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"baseline+shards", func(s *Spec) {
			s.Engine.Baseline = ptr(true)
			s.Engine.Shards = ptr(4)
			s.Faults = nil
		}, "baseline with shards"},
		{"baseline+lookahead", func(s *Spec) {
			s.Engine.Baseline = ptr(true)
			s.Engine.Lookahead = ptr(true)
			s.Faults = nil
		}, "baseline with lookahead"},
		{"poison without pool", func(s *Spec) {
			s.Engine.Poison = ptr(true)
			s.Engine.MessagePool = ptr(false)
		}, "poison"},
		{"inert lookahead", func(s *Spec) {
			s.Engine.Lookahead = ptr(true)
			s.Engine.Deferral = ptr(false)
		}, "lookahead"},
		{"deferral under RO", func(s *Spec) {
			s.Engine.Ordering = "RO"
			s.Engine.Deferral = ptr(true)
		}, "deferral with RO"},
		{"loss out of range", func(s *Spec) {
			s.Engine.PerLinkLoss = ptr(1.5)
		}, "outside [0,1]"},
		{"duplication negative", func(s *Spec) {
			s.Engine.Duplication = ptr(-0.1)
		}, "outside [0,1]"},
		{"negative shards", func(s *Spec) {
			s.Engine.Shards = ptr(-1)
		}, "negative"},
		{"chain bound past int32", func(s *Spec) {
			s.Engine.ChainBound = ptr(math.MaxInt32 + 1)
		}, "chainBound 2147483648 above"},
		{"unknown ordering", func(s *Spec) {
			s.Engine.Ordering = "ZZ"
		}, "ordering"},
		{"ordering alias", func(s *Spec) {
			s.Engine.Ordering = "ro"
		}, `ordering: unknown ordering "ro"`},
		{"unknown strategy", func(s *Spec) {
			s.Engine.Strategy = "XX/YY"
		}, "checkpoint"},
		{"unknown topology", func(s *Spec) {
			s.Topology = TopologyRef{Kind: "torus"}
		}, "topology"},
		{"no protocols", func(s *Spec) {
			s.Protocols = ProtocolSpec{}
		}, "protocol"},
		{"hier without ospf", func(s *Spec) {
			s.Protocols.OSPF = nil
		}, "OSPF"},
		{"no name", func(s *Spec) {
			s.Name = ""
		}, "name"},
		{"zero horizon", func(s *Spec) {
			s.Horizon.Run = 0
		}, "horizon"},
		{"fault window inverted", func(s *Spec) {
			s.Faults = &FaultSpec{Start: Duration(5 * vtime.Second), End: Duration(2 * vtime.Second)}
		}, "fault window"},
		{"baseline faults", func(s *Spec) {
			s.Engine.Baseline = ptr(true)
			s.Faults = &FaultSpec{Start: 0, End: Duration(2 * vtime.Second)}
		}, "baseline"},
		{"recorded faults", func(s *Spec) {
			s.Engine.Record = ptr(true)
			s.Faults = &FaultSpec{Start: 0, End: Duration(2 * vtime.Second)}
		}, "fault plan with record"},
		{"bad rip mode", func(s *Spec) {
			s.Protocols.RIP.Mode = "cisco"
		}, "rip mode"},
		{"bad event kind", func(s *Spec) {
			s.Events = []EventSpec{{Kind: "reboot"}}
		}, "unknown kind"},
		{"link-change missing endpoints", func(s *Spec) {
			s.Events = []EventSpec{{Kind: "link-change"}}
		}, "link-change"},
	}
	for _, c := range cases {
		spec := smallHierSpec()
		c.mutate(&spec)
		_, err := spec.Resolve()
		if err == nil {
			t.Errorf("%s: contradictory spec accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestFlatMultiBindingRejected covers the flat-topology arm separately
// (smallHierSpec is hierarchical).
func TestFlatMultiBindingRejected(t *testing.T) {
	s := sprintlinkSpec()
	s.Protocols.BGP = &BGPSpec{}
	if _, err := s.Resolve(); err == nil {
		t.Error("flat topology with two bindings accepted")
	}
}

func TestExpandHier(t *testing.T) {
	r, err := smallHierSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if p.Hier == nil || p.Graph.N != p.Hier.N {
		t.Fatal("hier plan lost its hierarchy")
	}
	stubs, borders, gateways := 0, 0, 0
	for i, np := range p.Nodes {
		switch np.Role {
		case topology.RoleStub:
			stubs++
			if len(np.Protocols) != 1 || np.Protocols[0] != "rip" {
				t.Fatalf("stub %d bindings %v", i, np.Protocols)
			}
		case topology.RoleBorder:
			borders++
			if int(np.DomainBase) != p.Hier.ASBase[np.AS] {
				t.Fatalf("border %d domain base %d, want %d", i, np.DomainBase, p.Hier.ASBase[np.AS])
			}
		case topology.RoleGateway:
			gateways++
			if len(np.Protocols) != 2 || np.Protocols[1] != "rip" {
				t.Fatalf("gateway %d bindings %v", i, np.Protocols)
			}
		}
	}
	if stubs == 0 || borders != 4 || gateways == 0 {
		t.Fatalf("role counts: %d stubs %d borders %d gateways", stubs, borders, gateways)
	}
	// Generated originations: one RIP per stub, one BGP per border.
	rips, bgps := 0, 0
	for _, ev := range p.Events {
		if ev.Ev == nil {
			continue
		}
		switch ev.Ev.ExternalKind() {
		case "rip-originate":
			rips++
		case "bgp-announce":
			bgps++
		}
	}
	if rips != stubs || bgps != borders {
		t.Fatalf("generated events: %d rip (want %d), %d bgp (want %d)", rips, stubs, bgps, borders)
	}
	// Expansion is deterministic: same RunSpec, same fingerprint.
	p2, err := r.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != p2.Fingerprint() {
		t.Fatal("same RunSpec expanded to different fingerprints")
	}
	// Apps build fresh composites matching the bindings.
	apps := p.Apps()
	for i, np := range p.Nodes {
		if np.Role == topology.RoleGateway {
			if OSPF(apps[i]) == nil || RIP(apps[i]) == nil {
				t.Fatalf("gateway %d app missing a part", i)
			}
		}
		if np.Role == topology.RoleBorder && BGP(apps[i]) == nil {
			t.Fatalf("border %d app missing bgp", i)
		}
	}
}
