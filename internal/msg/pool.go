package msg

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a reference-counted free list of Message structs. Every message
// the substrate puts on the wire — application traffic and control traffic
// alike — is allocated from a pool and recycled when its last reference is
// released, so steady-state message traffic stops allocating wrappers.
//
// See the package comment for the ownership rules: who retains, who
// releases, and when poison mode applies.
//
// Reference counts are always manipulated atomically, so Retain, Release
// and CheckLive are safe from any goroutine: a message allocated on one
// shard of the sharded engine can be retained by a history window on
// another and released there, with the last release returning the struct
// to its home pool. The free list itself is single-threaded by default
// (the sequential engine's allocation fast path takes no lock); a pool
// that can receive cross-shard releases must be switched to concurrent
// mode with SetConcurrent, which guards Get and recycling with a mutex.
//
// The free list is a LIFO chain through the released structs themselves:
// a released Message's Payload holds the next free one, so a release
// stores into memory the pool already owns and no buffer grows with the
// number of messages released at once. A live Message has no spare word
// to hold its own slab index, so the link is a pointer, not an integer;
// a pointer in an interface allocates nothing.
type Pool struct {
	mu    sync.Mutex // guards free/nfree/slab/live/quarantined in concurrent mode
	free  *Message   // the most recently released struct, nil when none
	nfree int        // structs on the free chain
	// slab is what is left of the current batch of fresh structs: a miss on
	// the free list takes the next cell and cuts a new slab when the batch
	// is used up, so the ramp to the high-water mark costs one allocation
	// per slabSize messages instead of one each. Slabs are never resized,
	// so pointers into them stay valid for the life of the pool.
	slab []Message
	// poison selects the debug lifecycle mode: released messages are
	// scribbled with sentinel values and quarantined (never reused), so a
	// use-after-release deterministically reads the sentinel instead of
	// whatever message happened to recycle the struct.
	poison bool
	// concurrent guards the free list for cross-goroutine Get/Release.
	// Set once before traffic flows (the sharded simulator does it at
	// construction), never toggled mid-run.
	concurrent  bool
	violations  atomic.Uint64
	live        int
	quarantined int
}

// poisonNode is the sentinel scribbled into released messages' node fields
// under poison mode. It is distinct from None so a poisoned read cannot be
// mistaken for a legitimately unset field.
const poisonNode NodeID = -0xDEAD

// slabSize is how many Messages one slab allocation provides.
const slabSize = 64

// Get returns a zeroed Message owned by the caller (reference count 1),
// reusing a recycled struct when one is available. The sequential engine
// calls this once per message, so the mutex is taken and dropped
// explicitly: a defer would bill its bookkeeping to the lock-free path too.
func (p *Pool) Get() *Message {
	if p.concurrent {
		p.mu.Lock()
	}
	p.live++
	m := p.free
	if m != nil {
		p.free, _ = m.Payload.(*Message)
		m.Payload = nil
		p.nfree--
		atomic.StoreInt32(&m.rc, 1)
	} else {
		if len(p.slab) == 0 {
			p.slab = make([]Message, slabSize)
		}
		m = &p.slab[0]
		p.slab = p.slab[1:]
		m.rc, m.home = 1, p
	}
	if p.concurrent {
		p.mu.Unlock()
	}
	return m
}

// put recycles a message whose last reference was released. Under poison
// mode the struct is scribbled and quarantined instead of reused.
func (p *Pool) put(m *Message) {
	if p.concurrent {
		p.mu.Lock()
	}
	p.live--
	if p.poison {
		p.quarantined++
		*m = Message{
			ID:   ID{Sender: poisonNode, Seq: ^uint64(0)},
			From: poisonNode,
			To:   poisonNode,
			Kind: Kind(0xEF),
			Ann:  Annotation{Origin: poisonNode, Seq: ^uint64(0), Delay: -1, Group: ^uint64(0), Chain: -1},
			home: p,
		}
	} else {
		*m = Message{Payload: p.free, home: p}
		p.free = m
		p.nfree++
	}
	if p.concurrent {
		p.mu.Unlock()
	}
}

// SetConcurrent switches the pool's free list to mutex-guarded mode, for
// pools whose messages can be released from another goroutine (shard
// boundary crossings). Like SetPoison it must be set before any traffic
// flows; the sequential engine leaves it off and keeps the lock-free path.
func (p *Pool) SetConcurrent(on bool) { p.concurrent = on }

// SetPoison switches the pool's debug poison mode. Enable it before any
// traffic flows; a sweep with poison on that completes with Violations()==0
// proves the lifecycle has no use-after-release. Poison-mode violations
// are recorded and execution continues (quarantined structs make that
// aliasing-free), so the sweep's tally is complete rather than truncated
// at the first hit; without poison a violation panics immediately.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// Violations reports how many lifecycle violations (retain/release/check
// of an already-released message) the pool has detected. Nonzero tallies
// are only observable under poison mode — without it the first violation
// panics instead of counting on.
func (p *Pool) Violations() uint64 { return p.violations.Load() }

// Live reports the number of messages currently checked out (allocated and
// not yet fully released) — the leak-detection balance.
func (p *Pool) Live() int {
	if p.concurrent {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return p.live
}

// Quarantined reports how many released messages poison mode has impounded.
//
// Test support: the msg, rollback, lockstep and root poison tests read it.
func (p *Pool) Quarantined() int {
	if p.concurrent {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return p.quarantined
}

// Len reports the number of recycled messages currently on the free list
// (tests). Cells of the current slab that were never handed out are not
// counted: Len moves only with releases and reuses, and stays zero under
// poison mode, where releases go to the quarantine instead.
func (p *Pool) Len() int {
	if p.concurrent {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return p.nfree
}

// violation records a lifecycle violation and reports whether execution
// may continue. Under poison mode it returns true: released structs are
// quarantined (never reused), so continuing is aliasing-free and the sweep
// completes with a reportable Violations tally — the "zero
// use-after-release" number the golden tests assert. Without poison the
// struct may already be recycled under a new owner, so the only safe
// response is an immediate panic (deterministic under the event loop, so
// the stack reproduces).
func (p *Pool) violation(m *Message, op string) bool {
	p.violations.Add(1)
	if p.poison {
		return true
	}
	panic(fmt.Sprintf("msg: %s of released message %s (rc=%d)", op, m.ID, atomic.LoadInt32(&m.rc)))
}

// Retain adds a reference to m and returns it. Messages that did not come
// from a pool (plain literals in tests, pool-less senders) are unmanaged:
// Retain is a no-op for them, and nil is tolerated so callers need not
// special-case timer/external history entries.
//
// The count is a CAS loop, never a blind increment: a reference may only
// be minted from a reference the caller already holds, so observing
// rc <= 0 means use-after-release (counted or panicked, per pool mode)
// and the struct is never resurrected — including when another shard
// releases concurrently.
func (m *Message) Retain() *Message {
	if m == nil || m.home == nil {
		return m
	}
	for {
		rc := atomic.LoadInt32(&m.rc)
		if rc <= 0 {
			// Counted (poison) or panicked; never resurrect the struct.
			m.home.violation(m, "Retain")
			return m
		}
		if atomic.CompareAndSwapInt32(&m.rc, rc, rc+1) {
			return m
		}
	}
}

// Release drops one reference; the last release returns the struct to its
// pool (or the poison quarantine). Unmanaged and nil messages are no-ops.
// The CAS guarantees exactly one releaser observes the count reach zero
// and recycles the struct, wherever that release happens.
func (m *Message) Release() {
	if m == nil || m.home == nil {
		return
	}
	for {
		rc := atomic.LoadInt32(&m.rc)
		if rc <= 0 {
			m.home.violation(m, "Release")
			return
		}
		if atomic.CompareAndSwapInt32(&m.rc, rc, rc-1) {
			if rc == 1 {
				m.home.put(m)
			}
			return
		}
	}
}

// Refs reports the current reference count (0 for unmanaged messages).
//
// Test support: the msg, history and netsim lifecycle tests read it.
func (m *Message) Refs() int32 { return atomic.LoadInt32(&m.rc) }

// CheckLive asserts that a borrowed message has not been released — the
// cheap chokepoint check the simulator, history window and replay engines
// run on every hand-off. It is a no-op for unmanaged messages.
func (m *Message) CheckLive(op string) {
	if m != nil && m.home != nil && atomic.LoadInt32(&m.rc) <= 0 {
		m.home.violation(m, op)
	}
}
