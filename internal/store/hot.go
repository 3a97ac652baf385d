package store

import (
	"container/list"
	"context"
	"time"

	"parapsp/internal/matrix"
)

// Class is an opaque coalescing class. Concurrent Acquires of the same
// (source, version) ride one owner only within a class; the serving layer
// passes its SLO tier, so a premium request never queues behind a solve a
// best-effort request started. Completed rows are class-blind: every
// class's rows land in the same (source, version)-keyed hot tier.
type Class uint8

// hotEntry is one source row at one version in T1. While pending it lives
// outside the LRU (waiters hold a pointer to it and the owner will fill
// it); row and err are written before close(ready) and are immutable
// afterwards. Rows installed ready by Reconcile have a nil ready channel:
// nothing ever waits on them.
type hotEntry struct {
	key   Key
	row   []matrix.Dist
	err   error
	ready chan struct{}
	elem  *list.Element // non-nil while resident in the LRU
}

type pendingKey struct {
	key   Key
	class Class
}

// slot ties a pending entry to the index of its source in an Acquire.
type slot struct {
	i int
	e *hotEntry
}

// Acquisition is the outcome of one Acquire and carries its state through
// Fulfill and Wait. Reusing one across calls makes a T1 hit allocation-free.
type Acquisition struct {
	// Rows[i] is the row of the i-th acquired source. Acquire sets it for
	// T1 hits and T2/T3 promotions, Fulfill for Owned sources, Wait for
	// the rest. Rows are immutable shared snapshots.
	Rows [][]matrix.Dist
	// Owned are the sources this caller must solve and hand to Fulfill.
	Owned []int32

	class Class
	owned []slot   // pending entries this caller created, aligned with Owned
	waits []slot   // pending entries other callers of the class own
	dups  [][2]int // (i, j): source i repeats source j < i
}

// Acquire resolves the rows of srcs at version ver for a caller of the
// given class. A source resident in T1, or pending under another caller
// of the same class, counts a t1_hit (the latter also coalesced); a frame
// in T2/T3 is decoded outside every tier lock and promoted into T1; the
// rest become acq.Owned. Each distinct source counts exactly one lookup
// in exactly one of t1_hits, t2_promotes, t3_promotes and misses. The
// caller must call Fulfill and then Wait, even when Owned is empty.
func (s *Store) Acquire(srcs []int32, ver uint64, class Class, acq *Acquisition) {
	acq.Rows, acq.Owned, acq.class = acq.Rows[:0], acq.Owned[:0], class
	acq.owned, acq.waits, acq.dups = acq.owned[:0], acq.waits[:0], acq.dups[:0]
	s.hotMu.Lock()
	for i, src := range srcs {
		acq.Rows = append(acq.Rows, nil)
		if j := indexOf(srcs[:i], src); j >= 0 {
			acq.dups = append(acq.dups, [2]int{i, j})
			continue
		}
		s.ledger.lookups.Add(1)
		key := Key{Src: src, Ver: ver}
		if e, ok := s.hot[key]; ok {
			s.ledger.t1.Add(1)
			s.lru.MoveToFront(e.elem)
			acq.Rows[i] = e.row
			continue
		}
		pk := pendingKey{key: key, class: class}
		if e, ok := s.pending[pk]; ok {
			s.ledger.t1.Add(1)
			s.ledger.coalesced.Add(1)
			acq.waits = append(acq.waits, slot{i, e})
			continue
		}
		e := &hotEntry{key: key, ready: make(chan struct{})}
		s.pending[pk] = e
		acq.owned = append(acq.owned, slot{i, e})
	}
	s.hotMu.Unlock()
	if len(acq.owned) == 0 {
		return
	}

	// Owned sources consult the compressed tiers before the caller solves.
	// A promotion publishes its row like a solve would; the rest stay
	// owned.
	var promoted []slot
	owned := acq.owned[:0]
	for _, o := range acq.owned {
		if s.compressed() {
			start := time.Now()
			row, tier := s.get(o.e.key, nil)
			switch tier {
			case TierWarm:
				s.ledger.t2.Add(1)
				s.ledger.t2Time.ObserveSince(start)
			case TierCold:
				s.ledger.t3.Add(1)
				s.ledger.t3Time.ObserveSince(start)
			}
			if tier != TierNone {
				o.e.row = row
				acq.Rows[o.i] = row
				promoted = append(promoted, o)
				continue
			}
		}
		s.ledger.misses.Add(1)
		owned = append(owned, o)
		acq.Owned = append(acq.Owned, o.e.key.Src)
	}
	acq.owned = owned
	if len(promoted) > 0 {
		s.publish(promoted, class, nil)
	}
}

func indexOf(srcs []int32, src int32) int {
	for j, s := range srcs {
		if s == src {
			return j
		}
	}
	return -1
}

// Fulfill publishes the caller's solved rows for acq.Owned — rowOf returns
// each source's row, which the store keeps without copying — or, on a
// non-nil err, wakes their waiters with err and forgets the pending
// entries, so the next Acquire of those sources owns them afresh.
func (s *Store) Fulfill(acq *Acquisition, rowOf func(src int32) []matrix.Dist, err error) {
	if len(acq.owned) == 0 {
		return
	}
	if err == nil {
		for _, o := range acq.owned {
			o.e.row = rowOf(o.e.key.Src)
			acq.Rows[o.i] = o.e.row
		}
	}
	s.publish(acq.owned, acq.class, err)
}

// Wait blocks until every source pending under another caller resolves,
// filling the remaining acq.Rows. It returns the owner's error, or
// ctx.Err() when the deadline expires first.
func (s *Store) Wait(ctx context.Context, acq *Acquisition) error {
	for _, w := range acq.waits {
		select {
		case <-w.e.ready:
			if w.e.err != nil {
				return w.e.err
			}
			acq.Rows[w.i] = w.e.row
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, d := range acq.dups {
		acq.Rows[d[0]] = acq.Rows[d[1]]
	}
	return nil
}

// publish retires pending entries: on success each row enters the LRU
// (unless a cross-class duplicate already put the same key there — both
// rows are exact, and the bytes are counted once), then the waiters wake.
// T1 is trimmed to its budget and the evicted rows are demoted after the
// hot lock is released.
func (s *Store) publish(slots []slot, class Class, err error) {
	s.hotMu.Lock()
	for _, o := range slots {
		e := o.e
		delete(s.pending, pendingKey{key: e.key, class: class})
		if err != nil {
			e.err = err
		} else if _, dup := s.hot[e.key]; !dup {
			s.insertHotLocked(e)
		}
		close(e.ready)
	}
	evicted := s.evictHotLocked()
	s.hotMu.Unlock()
	s.demote(evicted)
}

func (s *Store) insertHotLocked(e *hotEntry) {
	s.hot[e.key] = e
	e.elem = s.lru.PushFront(e)
	s.hotBytes += int64(len(e.row)) * 4
}

// evictHotLocked trims the LRU to the T1 byte budget, always keeping at
// least one row, and returns the evicted entries for demote.
func (s *Store) evictHotLocked() []*hotEntry {
	var evicted []*hotEntry
	for s.hotBytes > s.cfg.HotBytes && s.lru.Len() > 1 {
		e := s.lru.Remove(s.lru.Back()).(*hotEntry)
		delete(s.hot, e.key)
		e.elem = nil
		s.hotBytes -= int64(len(e.row)) * 4
		s.ledger.evictions.Add(1)
		evicted = append(evicted, e)
	}
	return evicted
}

// demote encodes evicted T1 rows into the compressed tiers, outside the
// hot lock. A row older than the newest reconciled version is dropped
// instead: Reconcile already carried (or invalidated) its source, and a
// frame at the old version could only serve readers pinned to it.
func (s *Store) demote(evicted []*hotEntry) {
	if !s.compressed() {
		return
	}
	latest := s.latest.Load()
	for _, e := range evicted {
		if e.key.Ver < latest {
			continue
		}
		start := time.Now()
		s.put(e.key, e.row)
		s.ledger.demotes.Add(1)
		s.ledger.demoteTime.ObserveSince(start)
	}
}

// reconcileHot carries T1's rows at oldVer over to newVer. The judge and
// repair run outside the hot lock on the shared immutable rows (a repair
// works on a copy), so the old-version entries stay untouched for readers
// pinned to oldVer and age out through the LRU. Carried rows enter the
// LRU in the recency order of their old entries; a key already resident
// at newVer wins.
func (s *Store) reconcileHot(oldVer, newVer uint64, judge func([]matrix.Dist) Verdict, repair func([]matrix.Dist) int) RecStats {
	var st RecStats
	s.hotMu.Lock()
	var olds []*hotEntry
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*hotEntry); e.key.Ver == oldVer {
			olds = append(olds, e)
		}
	}
	s.hotMu.Unlock()

	carried := make([]*hotEntry, 0, len(olds))
	for _, e := range olds {
		st.Scanned++
		row := e.row
		switch judge(row) {
		case Keep:
			st.Retagged++
		case Repair:
			row = append([]matrix.Dist(nil), row...)
			st.Labels += repair(row)
			st.Repaired++
		default:
			st.Dropped++
			continue
		}
		carried = append(carried, &hotEntry{key: Key{Src: e.key.Src, Ver: newVer}, row: row})
	}

	s.hotMu.Lock()
	for _, e := range carried {
		if _, ok := s.hot[e.key]; !ok {
			s.insertHotLocked(e)
		}
	}
	evicted := s.evictHotLocked()
	s.hotMu.Unlock()
	s.demote(evicted)
	return st
}
