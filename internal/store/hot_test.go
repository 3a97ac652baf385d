package store

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"parapsp/internal/matrix"
	"parapsp/internal/obs"
)

func openHot(t *testing.T, n int, hotRows int, warm int64) (*Store, *obs.Metrics) {
	t.Helper()
	reg := obs.NewMetrics()
	return mustOpen(t, Config{N: n, HotBytes: int64(hotRows) * int64(n) * 4, WarmBytes: warm, Metrics: reg}), reg
}

// fill resolves src at ver through the full protocol, solving any owned
// source with row.
func fill(t *testing.T, s *Store, src int32, ver uint64, row []matrix.Dist) []matrix.Dist {
	t.Helper()
	var acq Acquisition
	s.Acquire([]int32{src}, ver, 0, &acq)
	s.Fulfill(&acq, func(int32) []matrix.Dist { return row }, nil)
	if err := s.Wait(context.Background(), &acq); err != nil {
		t.Fatal(err)
	}
	return acq.Rows[0]
}

func checkLedger(t *testing.T, reg *obs.Metrics) map[string]int64 {
	t.Helper()
	m := reg.Snapshot()
	if m["serve.store.lookups"] != m["serve.store.t1_hits"]+m["serve.store.t2_promotes"]+
		m["serve.store.t3_promotes"]+m["serve.store.misses"] {
		t.Fatalf("ledger does not reconcile: %v", m)
	}
	return m
}

// TestAcquireSameClassOneOwner: concurrent acquirers of one source in one
// class produce exactly one owner; everyone else waits on its row.
func TestAcquireSameClassOneOwner(t *testing.T) {
	const n, callers = 64, 16
	s, reg := openHot(t, n, 8, 0)
	row := genRow(rand.New(rand.NewSource(1)), n, "powerlaw")

	// Deterministic core: the second acquirer waits while the first owns.
	var a, b Acquisition
	s.Acquire([]int32{5, 5}, 1, 0, &a)
	s.Acquire([]int32{5}, 1, 0, &b)
	if len(a.Owned) != 1 || len(b.Owned) != 0 {
		t.Fatalf("owned: first %v, second %v", a.Owned, b.Owned)
	}
	s.Fulfill(&a, func(int32) []matrix.Dist { return row }, nil)
	if err := s.Wait(context.Background(), &a); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if &a.Rows[0][0] != &row[0] || &a.Rows[1][0] != &row[0] || &b.Rows[0][0] != &row[0] {
		t.Fatal("acquirers did not share the owner's row")
	}

	// Under contention: one owner among many goroutines.
	var wg sync.WaitGroup
	var mu sync.Mutex
	owners := 0
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acq Acquisition
			s.Acquire([]int32{9}, 1, 0, &acq)
			mu.Lock()
			owners += len(acq.Owned)
			mu.Unlock()
			s.Fulfill(&acq, func(int32) []matrix.Dist { return row }, nil)
			if err := s.Wait(context.Background(), &acq); err != nil || acq.Rows[0] == nil {
				t.Errorf("wait: %v", err)
			}
		}()
	}
	wg.Wait()
	if owners != 1 {
		t.Fatalf("%d owners for one source, want 1", owners)
	}
	m := checkLedger(t, reg)
	if m["serve.store.misses"] != 2 || m["serve.store.lookups"] != 2+callers {
		t.Fatalf("misses %d lookups %d, want 2 and %d", m["serve.store.misses"], m["serve.store.lookups"], 2+callers)
	}
}

// TestAcquireCrossClassDuplicate: another class never waits on a solve it
// did not start, so it owns its own; both rows are exact, and T1 counts
// the key's bytes once.
func TestAcquireCrossClassDuplicate(t *testing.T) {
	const n = 32
	s, _ := openHot(t, n, 8, 0)
	rng := rand.New(rand.NewSource(2))
	rowA, rowB := genRow(rng, n, "grid"), genRow(rng, n, "grid")

	var a, b, bWaiter Acquisition
	s.Acquire([]int32{3}, 1, 0, &a)
	s.Acquire([]int32{3}, 1, 1, &b)
	s.Acquire([]int32{3}, 1, 1, &bWaiter)
	if len(a.Owned) != 1 || len(b.Owned) != 1 || len(bWaiter.Owned) != 0 {
		t.Fatalf("owned: class 0 %v, class 1 %v, class 1 waiter %v", a.Owned, b.Owned, bWaiter.Owned)
	}
	s.Fulfill(&a, func(int32) []matrix.Dist { return rowA }, nil)
	s.Fulfill(&b, func(int32) []matrix.Dist { return rowB }, nil)
	if err := s.Wait(context.Background(), &bWaiter); err != nil {
		t.Fatal(err)
	}
	if &bWaiter.Rows[0][0] != &rowB[0] {
		t.Fatal("class-1 waiter did not get its own class's row")
	}
	if st := s.Snapshot(); st.HotRows != 1 || st.HotBytes != n*4 {
		t.Fatalf("duplicate counted twice: %+v", st)
	}
	if row, _ := s.Peek(Key{Src: 3, Ver: 1}); &row[0] != &rowA[0] {
		t.Fatal("the first published row did not stay resident")
	}
}

// TestFulfillErrorWakesWaiters: a failed solve wakes its waiters with the
// error and leaves nothing pending, so the next Acquire owns the source.
func TestFulfillErrorWakesWaiters(t *testing.T) {
	s, _ := openHot(t, 16, 4, 0)
	boom := errors.New("solve failed")
	var owner, waiter Acquisition
	s.Acquire([]int32{1}, 1, 0, &owner)
	s.Acquire([]int32{1}, 1, 0, &waiter)
	done := make(chan error)
	go func() { done <- s.Wait(context.Background(), &waiter) }()
	s.Fulfill(&owner, nil, boom)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("waiter woke with %v, want %v", err, boom)
	}
	var next Acquisition
	s.Acquire([]int32{1}, 1, 0, &next)
	if len(next.Owned) != 1 {
		t.Fatalf("source still pending after a failed solve: owned %v", next.Owned)
	}
	s.Fulfill(&next, nil, boom)
	if st := s.Snapshot(); st.HotRows != 0 {
		t.Fatalf("failed solves left rows resident: %+v", st)
	}
}

// TestHotBudgetBelowOneRowKeepsOne: a budget smaller than one row keeps
// the most recent row instead of thrashing.
func TestHotBudgetBelowOneRowKeepsOne(t *testing.T) {
	const n = 16
	s := mustOpen(t, Config{N: n, HotBytes: 1})
	rng := rand.New(rand.NewSource(3))
	for src := int32(0); src < 3; src++ {
		fill(t, s, src, 1, genRow(rng, n, "grid"))
	}
	if st := s.Snapshot(); st.HotRows != 1 || st.HotBytes != n*4 {
		t.Fatalf("sub-row budget: %+v, want one row", st)
	}
	if row, _ := s.Peek(Key{Src: 2, Ver: 1}); row == nil {
		t.Fatal("the most recent row was not the one kept")
	}
}

// TestT1HitAllocs pins the hot path: a T1 hit through a reused
// Acquisition takes one lock and allocates nothing.
func TestT1HitAllocs(t *testing.T) {
	const n = 64
	s, _ := openHot(t, n, 4, 1<<16)
	fill(t, s, 7, 1, genRow(rand.New(rand.NewSource(4)), n, "powerlaw"))
	srcs := []int32{7}
	var acq Acquisition
	ctx := context.Background()
	hit := func() {
		s.Acquire(srcs, 1, 0, &acq)
		s.Fulfill(&acq, nil, nil)
		if err := s.Wait(ctx, &acq); err != nil || acq.Rows[0] == nil {
			t.Fatalf("T1 hit missed: %v", err)
		}
	}
	hit()
	if a := testing.AllocsPerRun(100, hit); a != 0 {
		t.Fatalf("T1 hit allocates %.1f times, want 0", a)
	}
}

// TestReconcileHotCarriesWithoutDemotes: reconciling a full T1 carries
// every row to the new version in T1 alone. The displaced old-version
// rows are superseded, so they are dropped rather than encoded into T2,
// and the compressed pass finds nothing to rescan.
func TestReconcileHotCarriesWithoutDemotes(t *testing.T) {
	const n, rows = 64, 6
	s, reg := openHot(t, n, rows, 1<<20)
	rng := rand.New(rand.NewSource(5))
	want := make([][]matrix.Dist, rows)
	for i := range want {
		want[i] = genRow(rng, n, "grid")
		fill(t, s, int32(i), 1, want[i])
	}
	before := reg.Snapshot()["serve.store.demotes"]
	hot, comp := s.Reconcile(1, 2, func(row []matrix.Dist) Verdict {
		if &row[0] == &want[0][0] {
			return Repair
		}
		if &row[0] == &want[1][0] {
			return Drop
		}
		return Keep
	}, func(row []matrix.Dist) int {
		row[0] = 0
		return 1
	})
	if hot.Scanned != rows || hot.Retagged != rows-2 || hot.Repaired != 1 || hot.Dropped != 1 || hot.Labels != 1 {
		t.Fatalf("hot stats %+v", hot)
	}
	if comp.Scanned != 0 {
		t.Fatalf("compressed pass rescanned %d frames", comp.Scanned)
	}
	if d := reg.Snapshot()["serve.store.demotes"] - before; d != 0 {
		t.Fatalf("reconcile demoted %d superseded rows", d)
	}
	for i := range want {
		row, tier := s.Peek(Key{Src: int32(i), Ver: 2})
		if tier != TierNone {
			t.Fatalf("row %d resident in T1 and T2", i)
		}
		switch i {
		case 0: // repaired on a copy
			if row == nil || row[0] != 0 || &row[0] == &want[0][0] {
				t.Fatal("repaired row not carried as a copy")
			}
		case 1:
			if row != nil {
				t.Fatal("dropped row carried")
			}
		default: // retagged rows are shared, not copied
			if row == nil || &row[0] != &want[i][0] {
				t.Fatalf("retagged row %d not shared", i)
			}
		}
	}
}
