package des

import (
	"math/rand"
	"sort"
	"testing"
)

type item struct {
	at    uint64
	class Class
	key   uint64
	id    int // insertion order
}

// reference pops the earliest pending item the slow way: a stable sort on
// (time, class, key) keeps insertion order among full ties.
func reference(pending []item) (item, []item) {
	sort.SliceStable(pending, func(i, j int) bool {
		a, b := pending[i], pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.class != b.class {
			return a.class < b.class
		}
		return a.key < b.key
	})
	return pending[0], pending[1:]
}

// checkAgainstReference interleaves pushes and pops drawn by gen and
// compares every pop with the reference order.
func checkAgainstReference(t *testing.T, seed int64, gen func(r *rand.Rand) (uint64, Class, uint64)) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var c Calendar[int]
	var pending []item
	id := 0
	pop := func() {
		var want item
		want, pending = reference(pending)
		at, got := c.Pop()
		if got != want.id || at != want.at {
			t.Fatalf("seed %d: popped id %d at %d, want id %d at %d", seed, got, at, want.id, want.at)
		}
	}
	for step := 0; step < 2000; step++ {
		if len(pending) > 0 && r.Intn(3) == 0 {
			pop()
			continue
		}
		at, class, key := gen(r)
		c.Push(at, class, key, id)
		pending = append(pending, item{at, class, key, id})
		id++
	}
	for len(pending) > 0 {
		pop()
	}
	if c.Len() != 0 {
		t.Fatalf("seed %d: %d events left after draining", seed, c.Len())
	}
}

// TestCalendarMatchesStableSort drives the calendar with heavily tied
// timestamps, classes and keys and checks every pop against a
// sort.SliceStable reference.
func TestCalendarMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkAgainstReference(t, seed, func(r *rand.Rand) (uint64, Class, uint64) {
			return uint64(r.Intn(8)), Class(r.Intn(4)), uint64(r.Intn(3))
		})
	}
}

// TestCalendarSingleClassIsInsertionOrder is the cluster fabric's use:
// every event shares one class and key, so ties on time pop strictly in
// insertion order.
func TestCalendarSingleClassIsInsertionOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkAgainstReference(t, seed, func(r *rand.Rand) (uint64, Class, uint64) {
			return uint64(r.Intn(5)), 0, 0
		})
	}
}

func TestCalendarPushPopDoesNotAllocate(t *testing.T) {
	var c Calendar[*item]
	p := &item{}
	for i := 0; i < 64; i++ {
		c.Push(uint64(i), Timer, 0, p)
	}
	for c.Len() > 0 {
		c.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Push(5, Timer, 0, p)
		c.Push(3, Completion, 1, p)
		c.Pop()
		c.Pop()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per push/pop pair, want 0", allocs)
	}
}
