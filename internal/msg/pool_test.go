package msg

import "testing"

func TestPoolRefcountLifecycle(t *testing.T) {
	var p Pool
	m := p.Get()
	if m.Refs() != 1 || !m.Managed() {
		t.Fatalf("fresh message: refs=%d managed=%v", m.Refs(), m.Managed())
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d, want 1", p.Live())
	}
	if got := m.Retain(); got != m {
		t.Fatal("Retain must return the message")
	}
	if m.Refs() != 2 {
		t.Fatalf("refs after retain = %d, want 2", m.Refs())
	}
	m.Release()
	if m.Refs() != 1 || p.Len() != 0 {
		t.Fatalf("refs=%d poolLen=%d after first release", m.Refs(), p.Len())
	}
	m.Release()
	if p.Len() != 1 || p.Live() != 0 {
		t.Fatalf("poolLen=%d live=%d after final release", p.Len(), p.Live())
	}
	if got := p.Get(); got != m {
		t.Fatal("pool should hand back the recycled struct")
	}
	if m.Refs() != 1 || m.Kind != KindApp || m.Payload != nil {
		t.Fatalf("recycled message not reset: %+v refs=%d", m, m.Refs())
	}
}

func TestUnmanagedMessagesIgnoreRefcounting(t *testing.T) {
	m := &Message{ID: ID{Sender: 1, Seq: 2}}
	if m.Managed() {
		t.Fatal("literal message must be unmanaged")
	}
	m.Retain()
	m.Release()
	m.Release() // extra releases are no-ops, not violations
	m.CheckLive("test")
	var nilMsg *Message
	nilMsg.Retain()
	nilMsg.Release()
	nilMsg.CheckLive("test")
	if m.ID != (ID{Sender: 1, Seq: 2}) {
		t.Fatal("unmanaged message must be untouched")
	}
}

func TestPoisonQuarantinesAndScribbles(t *testing.T) {
	var p Pool
	p.SetPoison(true)
	m := p.Get()
	m.From, m.To, m.Kind = 1, 2, KindApp
	m.Release()
	if p.Len() != 0 {
		t.Fatalf("poisoned release must quarantine, pool len = %d", p.Len())
	}
	if p.Quarantined() != 1 {
		t.Fatalf("quarantined = %d, want 1", p.Quarantined())
	}
	if m.From != poisonNode || m.To != poisonNode || m.ID.Sender != poisonNode {
		t.Fatalf("released message not scribbled: %+v", m)
	}
	if n := p.Get(); n == m {
		t.Fatal("poison mode must never reuse a released struct")
	}
}

// Poison-mode violations are tallied and execution continues (quarantined
// structs cannot alias a new owner), so a sweep reports its complete
// use-after-release count instead of truncating at the first hit — and a
// counted Retain must not resurrect the released struct.
func TestPoisonCountsUseAfterRelease(t *testing.T) {
	cases := []struct {
		name string
		op   func(m *Message)
	}{
		{"Retain", func(m *Message) { m.Retain() }},
		{"Release", func(m *Message) { m.Release() }},
		{"CheckLive", func(m *Message) { m.CheckLive("test") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p Pool
			p.SetPoison(true)
			m := p.Get()
			m.Release()
			tc.op(m) // must not panic
			tc.op(m)
			if p.Violations() != 2 {
				t.Fatalf("violations = %d, want 2", p.Violations())
			}
			if m.Refs() != 0 {
				t.Fatalf("released struct resurrected: refs = %d", m.Refs())
			}
			if p.Quarantined() != 1 || p.Len() != 0 {
				t.Fatalf("quarantine disturbed: quarantined=%d len=%d", p.Quarantined(), p.Len())
			}
		})
	}
}

// Without poison, a recycled struct is reused — the Release/Get round trip
// that pooling exists for. A stale Retain/Release on the recycled struct
// would corrupt the new owner's count, which is exactly what CheckLive and
// poison mode exist to catch; this test pins the detection arithmetic.
func TestViolationDetectedOnDoubleRelease(t *testing.T) {
	var p Pool
	m := p.Get()
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	m.Release()
}

// Managed reports whether m's lifetime is pool-managed.
func (m *Message) Managed() bool { return m != nil && m.home != nil }
