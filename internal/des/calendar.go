// Package des is the event calendar of svbench's discrete-event
// simulations: a typed binary heap that pops events in (virtual time,
// class, key, insertion sequence) order. Every decision a simulation
// makes at equal timestamps follows from that order, so it is defined
// here and nowhere else.
//
// Event order at equal virtual time:
//
//	class       key              why it goes here
//	Completion  invocation id    a freeing instance can absorb work at the same instant
//	Ready       instance id      a booted instance can too
//	Timer       see below        a retry is older than a new arrival, and the autoscaler
//	                             observes the cluster before a same-instant arrival lands
//	Arrival     invocation id    new work enters last
//
// Timer covers both the client timers of the keep-alive pool (key:
// invocation id, then attempt, then retry before timeout) and the
// autoscaler's reconcile tick (key 0); a run has one kind or the other.
// Events equal in time, class and key pop in insertion order — two
// completions of one retried invocation can tie on (time, id), and the
// one booked first finishes first. The cluster fabric files every event
// under one class and key, so its order is exactly (time, insertion).
package des

// Class is an event's rank among events at the same virtual time.
type Class uint8

// The classes, in pop order at equal time (see the package table).
const (
	Completion Class = iota
	Ready
	Timer
	Arrival
)

type entry[T any] struct {
	at, key, seq uint64
	class        Class
	v            T
}

func (a *entry[T]) before(b *entry[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Calendar is a min-heap of pending events carrying payloads of type T.
// The zero value is empty and ready to use. Push and Pop never box the
// payload, and allocate only when the heap outgrows its backing array.
type Calendar[T any] struct {
	h   []entry[T]
	seq uint64
}

// Len is the number of pending events.
func (c *Calendar[T]) Len() int { return len(c.h) }

// Push books v at virtual time at under class and key.
func (c *Calendar[T]) Push(at uint64, class Class, key uint64, v T) {
	c.h = append(c.h, entry[T]{at: at, key: key, seq: c.seq, class: class, v: v})
	c.seq++
	for i := len(c.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !c.h[i].before(&c.h[p]) {
			break
		}
		c.h[i], c.h[p] = c.h[p], c.h[i]
		i = p
	}
}

// Pop removes the earliest event and returns its time and payload. It
// panics on an empty calendar.
func (c *Calendar[T]) Pop() (uint64, T) {
	top := c.h[0]
	n := len(c.h) - 1
	c.h[0] = c.h[n]
	c.h[n] = entry[T]{} // drop the payload's references
	c.h = c.h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && c.h[l].before(&c.h[m]) {
			m = l
		}
		if r := l + 1; r < n && c.h[r].before(&c.h[m]) {
			m = r
		}
		if m == i {
			break
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
	return top.at, top.v
}
