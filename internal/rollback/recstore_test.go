package rollback

import "testing"

// freeRecs counts the records on s's free chain, failing on a cycle.
func freeRecs(s *recStore) int {
	n := 0
	for link := s.free; link != 0; link = s.at(uint32(link - 1)).causeSerial {
		if n++; n > int(s.cut) {
			panic("recStore: free chain longer than the records cut")
		}
	}
	return n
}

// The ledgers of one lane share its store: records node A frees are the
// ones node B takes next, last freed first, with no allocation — a record
// store per ledger would cut B a slab of its own.
func TestRecStoreSharedAcrossLedgers(t *testing.T) {
	const k = 3 * recSlabSize / 2
	var s recStore
	const runs = 20
	ls := make([]ledger, 2+1+runs) // A, B, then a new ledger for AllocsPerRun's warm-up and each run
	for i := range ls {
		ls[i].recs = &s
	}
	recs := make([]*sentRec, k)
	take := func(l *ledger) {
		for i := range recs {
			recs[i] = l.recs.get(l)
		}
	}
	free := func(l *ledger) {
		for i := range recs {
			l.freeRec(recs[i])
		}
	}
	a := &ls[0]
	take(a) // cuts the slabs
	cut := s.cut
	free(a)
	freed := append([]*sentRec(nil), recs...)
	b := &ls[1]
	take(b)
	for i, rec := range recs {
		if rec != freed[k-1-i] || rec.l != b || rec.causeSerial != 0 || rec.m != nil {
			t.Fatalf("take %d for B: not A's record freed %d-th from last, zeroed and B's", i, i)
		}
	}
	if s.cut != cut || freeRecs(&s) != 0 {
		t.Fatalf("B's takes cut %d records and left %d free, want 0/0", s.cut-cut, freeRecs(&s))
	}
	free(b)
	next := 2
	if got := testing.AllocsPerRun(runs, func() {
		l := &ls[next]
		next++
		take(l)
		free(l)
	}); got != 0 {
		t.Errorf("a fresh ledger taking %d records its lane freed: %v allocs, want 0", k, got)
	}
	if s.cut != cut || freeRecs(&s) != k {
		t.Fatalf("store cut %d records and has %d free, want %d/%d", s.cut, freeRecs(&s), cut, k)
	}
}
