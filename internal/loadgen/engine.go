package loadgen

import (
	"fmt"
	"math"

	"svbench/internal/des"
	"svbench/internal/faults"
	"svbench/internal/trace"
)

// Capacity is the policy half of the serving engine: everything the
// keep-alive pool (Run) and the cluster autoscaler (internal/autoscale)
// do differently. The engine owns arrivals, attempts, warm picks,
// service, completions and client timers; a Capacity decides where work
// goes when it is ready to run, and how the fleet changes over time.
type Capacity interface {
	// Dispatch places one attempt that is ready to run at now — a new
	// send, or the head of the FIFO queue once an instance frees up: on
	// a warm instance (Engine.Warm), on fresh capacity, or into the
	// queue (Engine.Enqueue).
	Dispatch(a Attempt, now uint64) error
	// Reconcile is the periodic capacity tick, called at every multiple
	// of the period Engine.Run was given (never when it is zero).
	Reconcile(now uint64) error
}

// Attempt is one send of an invocation waiting for (or heading to) an
// instance. The fault outcome is frozen at send time, so an attempt that
// queues carries the faults it drew when the client sent it.
type Attempt struct {
	inv, attempt int
	sent         uint64 // client send instant (queue-delay and deadline anchor)
	f            faults.AttemptFault
}

// slot is the engine's record of one live instance: its boot and idle
// instants, and the attempt it is serving while busy.
type slot struct {
	inst      *Instance
	readyAt   uint64 // when its cold-start boot ends
	idleSince uint64
	fresh     bool // not served yet: its first attempt is the cold one

	a           Attempt // being served, while busy
	checkFailed bool
}

// Calendar event kinds.
const (
	evDone    = iota // an instance finishes its attempt
	evReady          // a booting instance can serve
	evRetry          // a backoff expires into the next attempt
	evTimeout        // the client gives up on a lost message
	evTick           // the capacity policy's periodic reconcile
	evArrive         // the next arrival enters
)

type event struct {
	kind         uint8
	s            *slot
	inv, attempt int
}

// Engine is the one discrete-event loop that serves invocations on
// simulated function instances, ordered by the des calendar. It is
// single-goroutine and every decision is a pure function of the Config.
//
// A front-end builds it with NewEngine, sets Tracer and the four
// distributions, registers the counters under its own stat names, and
// calls Run with its Capacity policy.
type Engine struct {
	// Tracer receives the run's events; policies emit theirs into it.
	Tracer *trace.Tracer
	// Invs holds one record per arrival, in arrival order.
	Invs []Invocation
	// LatD, QueueD, SvcD and ColdD receive each invocation's final
	// latency, queueing delay, service time and (if cold) boot penalty.
	LatD, QueueD, SvcD, ColdD *trace.Dist

	// ColdStarts counts instances started, ChurnColds those that merely
	// refilled reclaimed capacity, Peak the live high-water mark.
	ColdStarts, ChurnColds, Peak uint64
	MaxQueue, CheckFailures      uint64

	cfg    Config
	fleet  *Fleet
	policy Capacity
	tick   uint64
	cal    des.Calendar[event]
	queue  []Attempt
	// idle lists idle instances in the order they went idle; starting
	// and busy count the rest of the live fleet.
	idle           []*slot
	starting, busy int
	ends           []uint8 // final outcomes booked per invocation

	// Pool and chaos/retry-path counters (zero on fault-free runs).
	warmStarts, attempts, retries, timeouts, badReplies uint64
	errorReplies, faulted, failed, recovered            uint64
}

// NewEngine validates cfg, materializes its arrival process and boots
// the fleet its instances restore from.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Spec.Build == nil || cfg.Spec.Request == nil {
		return nil, fmt.Errorf("loadgen: config has no function spec")
	}
	if !rateOK(cfg.RPS) {
		return nil, fmt.Errorf("loadgen: RPS must be positive and finite, got %g", cfg.RPS)
	}
	if cfg.Duration == 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive")
	}
	if cfg.MaxInstances < 0 {
		return nil, fmt.Errorf("loadgen: MaxInstances must be >= 1, got %d", cfg.MaxInstances)
	}
	f, err := NewFleet(cfg.Cfg, cfg.Spec, cfg.Cache, cfg.OnInstance)
	if err != nil {
		return nil, err
	}
	arrives := genArrivals(cfg)
	e := &Engine{cfg: cfg, fleet: f, Invs: make([]Invocation, len(arrives)), ends: make([]uint8, len(arrives))}
	for i, at := range arrives {
		e.Invs[i].ID, e.Invs[i].Arrive = i, at
	}
	return e, nil
}

// rateOK reports whether rps is a usable arrival rate.
func rateOK(rps float64) bool { return rps > 0 && !math.IsInf(rps, 1) }

// Run drives the loop until every arrival has finished, with policy
// placing work and reconciling every tick virtual nanoseconds (0 = no
// periodic tick). The tick never keeps the loop alive on its own. After
// the drain Run checks conservation: every invocation finished exactly
// once, nothing is queued, busy or still booting.
func (e *Engine) Run(policy Capacity, tick uint64) error {
	e.policy, e.tick = policy, tick
	if len(e.Invs) > 0 {
		e.cal.Push(e.Invs[0].Arrive, des.Arrival, 0, event{kind: evArrive})
	}
	if tick > 0 {
		e.cal.Push(0, des.Timer, 0, event{kind: evTick})
	}
	for e.working() {
		now, ev := e.cal.Pop()
		var err error
		switch ev.kind {
		case evDone:
			err = e.complete(ev.s, now)
		case evReady:
			e.starting--
			err = e.idleFrom(ev.s, now)
		case evRetry:
			err = e.sendAttempt(ev.inv, ev.attempt, now)
		case evTimeout:
			e.failAttempt(ev.inv, ev.attempt, now, &e.timeouts)
		case evTick:
			e.cal.Push(now+tick, des.Timer, 0, ev)
			err = policy.Reconcile(now)
		case evArrive:
			if next := ev.inv + 1; next < len(e.Invs) {
				e.cal.Push(e.Invs[next].Arrive, des.Arrival, uint64(next), event{kind: evArrive, inv: next})
			}
			e.Tracer.EmitAt(trace.EvInvokeArrive, 0, now, 0, uint64(ev.inv), 0)
			err = e.sendAttempt(ev.inv, 1, now)
		}
		if err != nil {
			return err
		}
	}
	for i, n := range e.ends {
		if n != 1 {
			return fmt.Errorf("loadgen: invocation %d finished %d times", i, n)
		}
	}
	if len(e.queue) > 0 || e.busy > 0 || e.starting > 0 {
		return fmt.Errorf("loadgen: run drained with %d queued, %d busy, %d starting",
			len(e.queue), e.busy, e.starting)
	}
	return nil
}

// working reports whether work is outstanding: any calendar event but
// the periodic tick, or a queued attempt the tick can still place.
func (e *Engine) working() bool {
	n := e.cal.Len()
	if e.tick > 0 {
		n--
	}
	return n > 0 || len(e.queue) > 0 && e.cal.Len() > 0
}

// Counts tallies the live fleet by state, plus the FIFO backlog.
func (e *Engine) Counts() (starting, idle, busy, queued int) {
	return e.starting, len(e.idle), e.busy, len(e.queue)
}

func (e *Engine) live() int { return e.starting + len(e.idle) + e.busy }

// maxAttempts is the per-invocation attempt bound under the retry policy
// (1 without one).
func (e *Engine) maxAttempts() int {
	if e.cfg.Retry == nil || e.cfg.Retry.MaxAttempts < 1 {
		return 1
	}
	return e.cfg.Retry.MaxAttempts
}

// deadlineNS is the per-attempt reply deadline for lost messages. A
// chaos run without an explicit policy still needs one — a dropped
// message would otherwise hang the client forever — so the default
// policy's deadline applies.
func (e *Engine) deadlineNS() uint64 {
	if e.cfg.Retry != nil && e.cfg.Retry.Deadline > 0 {
		return e.cfg.Retry.Deadline
	}
	return faults.DefaultRetry().Deadline
}

// pushTimer books a client timer. Timers at one instant fire by
// invocation, then attempt, then retry before timeout.
func (e *Engine) pushTimer(due uint64, kind uint8, inv, attempt int) {
	key := uint64(inv)<<32 | uint64(attempt)<<1 | uint64(kind-evRetry)
	e.cal.Push(due, des.Timer, key, event{kind: kind, inv: inv, attempt: attempt})
}

// sendAttempt issues one client attempt: the fault hook is consulted
// exactly here (once per attempt, in event order), and the outcome
// decides whether the request reaches the fleet at all.
func (e *Engine) sendAttempt(inv, attempt int, now uint64) error {
	e.Invs[inv].Attempts = attempt
	e.attempts++
	var f faults.AttemptFault
	if e.cfg.Chaos != nil {
		f = e.cfg.Chaos.Attempt(inv, attempt, now)
	}
	if f.Faulted() {
		e.Invs[inv].FaultedAttempts++
		e.faulted++
	}
	if f.DropRequest {
		// The request is lost before it reaches the platform: no instance
		// is touched and the client notices at its reply deadline.
		e.pushTimer(now+e.deadlineNS(), evTimeout, inv, attempt)
		return nil
	}
	return e.policy.Dispatch(Attempt{inv: inv, attempt: attempt, sent: now, f: f}, now)
}

// failAttempt books one attempt's failure on its class counter: the next
// attempt is scheduled under the retry policy, or the invocation fails
// once attempts are exhausted (or no policy exists).
func (e *Engine) failAttempt(inv, attempt int, now uint64, class *uint64) {
	*class++
	if attempt < e.maxAttempts() {
		e.retries++
		e.Tracer.EmitAt(trace.EvInvokeRetry, 0, now, 0, uint64(inv), uint64(attempt+1))
		// Exponential backoff, shift-capped so it never wraps.
		e.pushTimer(now+e.cfg.Retry.Backoff<<uint(min(attempt-1, 32)), evRetry, inv, attempt+1)
		return
	}
	iv := &e.Invs[inv]
	iv.Failed = true
	e.failed++
	e.settle(iv, now)
	e.Tracer.EmitAt(trace.EvInvokeFail, 0, now, 0, uint64(inv), uint64(iv.Attempts))
}

// settle books an invocation's final outcome at the instant the client
// observes it, recording its metrics into the distributions.
func (e *Engine) settle(iv *Invocation, now uint64) {
	e.ends[iv.ID]++
	iv.Done = now
	iv.Latency = now - iv.Arrive
	e.LatD.Observe(iv.Latency)
	e.QueueD.Observe(iv.QueueDelay)
	e.SvcD.Observe(iv.Service)
	if iv.Cold {
		e.ColdD.Observe(iv.ColdPenalty)
	}
}

// leaseEnd is when an idle instance's keep-alive lease expires
// (overflow-safe: a huge keep-alive never expires).
func (e *Engine) leaseEnd(s *slot) uint64 {
	end := s.idleSince + e.cfg.KeepAlive
	if end < s.idleSince {
		return ^uint64(0)
	}
	return end
}

// takeIdle removes and returns an idle instance, or nil if none
// qualifies. The warm pick (newest) takes the one that went idle most
// recently — the usual most-recently-used keep-alive policy; otherwise
// it takes the one idle longest among those whose lease ended by now.
// Ties: lowest id.
func (e *Engine) takeIdle(newest bool, now uint64) *slot {
	best := -1
	for i, s := range e.idle {
		if !newest && e.leaseEnd(s) > now {
			continue
		}
		if best >= 0 {
			b := e.idle[best]
			if s.idleSince == b.idleSince && s.inst.ID > b.inst.ID ||
				s.idleSince != b.idleSince && (s.idleSince > b.idleSince) != newest {
				continue
			}
		}
		best = i
	}
	if best < 0 {
		return nil
	}
	s := e.idle[best]
	e.idle = append(e.idle[:best], e.idle[best+1:]...)
	return s
}

// Warm starts a on the most recently idled instance and reports whether
// one was idle.
func (e *Engine) Warm(a Attempt, now uint64) (bool, error) {
	s := e.takeIdle(true, now)
	if s == nil {
		return false, nil
	}
	e.warmStarts++
	return true, e.start(a, now, s)
}

// Enqueue appends a to the FIFO backlog.
func (e *Engine) Enqueue(a Attempt) {
	e.queue = append(e.queue, a)
	e.MaxQueue = max(e.MaxQueue, uint64(len(e.queue)))
}

// acquire cold-starts an instance at now; it can serve from now plus its
// boot penalty.
func (e *Engine) acquire(now uint64) (*slot, error) {
	inst, err := e.fleet.Acquire()
	if err != nil {
		return nil, err
	}
	e.ColdStarts++
	if live := uint64(e.live() + 1); live > e.Peak {
		e.Peak = live
	} else {
		// Refilling capacity reclaimed earlier: a churn cold start.
		e.ChurnColds++
	}
	e.Tracer.EmitAt(trace.EvColdStart, uint8(inst.ID), now, 0, uint64(inst.ID), inst.Penalty)
	return &slot{inst: inst, readyAt: now + inst.Penalty, fresh: true}, nil
}

// Boot cold-starts an instance at now that joins the idle fleet — and
// takes the queue head — once its boot penalty has elapsed.
func (e *Engine) Boot(now uint64) (*Instance, error) {
	s, err := e.acquire(now)
	if err != nil {
		return nil, err
	}
	e.starting++
	e.cal.Push(s.readyAt, des.Ready, uint64(s.inst.ID), event{kind: evReady, s: s})
	return s.inst, nil
}

// Retire tears down the longest-idle instance whose keep-alive lease
// ended at or before now (ties: lowest id), returns its machine to the
// fleet and reports it, or nil when no idle lease has lapsed.
func (e *Engine) Retire(now uint64) *Instance {
	s := e.takeIdle(false, now)
	if s == nil {
		return nil
	}
	e.fleet.Release(s.inst)
	return s.inst
}

// start serves attempt a on instance s from now — or, on an instance
// still booting, from the end of its boot — and books the completion.
// Queue delay and cold penalties accumulate across an invocation's
// attempts.
func (e *Engine) start(a Attempt, now uint64, s *slot) error {
	iv := &e.Invs[a.inv]
	iv.Instance = s.inst.ID
	iv.QueueDelay += now - a.sent
	if s.fresh {
		s.fresh = false
		iv.Cold = true
		iv.ColdPenalty += s.inst.Penalty
	}
	startNS := max(now, s.readyAt)
	svc := uint64(errorReplyNS)
	s.checkFailed = false
	// An injected error frame fails fast, without running the function.
	if !a.f.ErrorReply {
		var err error
		if svc, s.checkFailed, err = e.fleet.Serve(s.inst, a.inv); err != nil {
			return err
		}
		if s.checkFailed {
			e.CheckFailures++
			iv.CheckFailed = true
		}
		if a.f.ServiceMult > 1 {
			svc *= a.f.ServiceMult
		}
	}
	iv.Start = startNS
	iv.Service = svc
	e.Tracer.EmitAt(trace.EvInvokeRun, uint8(s.inst.ID), startNS, 0, uint64(a.inv), svc)
	if a.f.DropResponse {
		// The reply is lost on the way back: the instance did the work,
		// but the client only notices at its per-attempt deadline.
		e.pushTimer(a.sent+e.deadlineNS(), evTimeout, a.inv, a.attempt)
	}
	s.a = a
	e.busy++
	e.cal.Push(startNS+svc, des.Completion, uint64(a.inv), event{kind: evDone, s: s})
	return nil
}

// complete retires one attempt: the instance idles from the completion
// instant, the client observes the outcome (unless the reply was lost),
// and the queue head, if any, is dispatched.
func (e *Engine) complete(s *slot, now uint64) error {
	e.busy--
	if a := s.a; !a.f.DropResponse {
		observe := now + a.f.DelayNS
		switch {
		case a.f.ErrorReply:
			e.failAttempt(a.inv, a.attempt, observe, &e.errorReplies)
		case a.f.BadReply, s.checkFailed && e.cfg.Retry != nil:
			// A corrupted reply — or one failing the spec's check under a
			// retry policy — is re-attempted like any client would.
			e.failAttempt(a.inv, a.attempt, observe, &e.badReplies)
		default:
			iv := &e.Invs[a.inv]
			if iv.Attempts > 1 {
				e.recovered++
			}
			e.settle(iv, observe)
			e.Tracer.EmitAt(trace.EvInvokeDone, 0, observe, 0, uint64(a.inv), iv.Latency)
		}
	}
	return e.idleFrom(s, now)
}

// idleFrom idles s at now and hands it the queue head, if any: a queued
// attempt means no other instance is idle, so the policy's warm pick
// lands on s (or, in the pool with a lapsed lease, on a fresh instance).
func (e *Engine) idleFrom(s *slot, now uint64) error {
	s.idleSince = now
	e.idle = append(e.idle, s)
	if len(e.queue) == 0 {
		return nil
	}
	a := e.queue[0]
	e.queue = e.queue[1:]
	return e.policy.Dispatch(a, now)
}
