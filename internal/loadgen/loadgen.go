// Package loadgen is the open-loop invocation load engine: it replays a
// seeded arrival process (Poisson or bursty, xorshift-driven like
// internal/faults) against function instances cloned from memoized
// post-boot checkpoints (harness.BootCache). Engine is the one
// discrete-event serving loop; a Capacity policy decides where work
// lands. Run drives it with the keep-alive pool, whose idle-reclaim
// policy produces a realistic cold/warm invocation mix; internal/autoscale
// drives it with a cluster autoscaler.
//
// Each instance is a real simulated machine: the engine restores private
// clones of the post-boot checkpoint, kills the simulated client, and
// drives the surviving function server host-side (kernel.Inject /
// kernel.TakeMessage + gemsys.RunUntilIdle). Service times are measured
// on the machine's virtual clock, so the cold/warm difference is the
// runtime's real lazy initialization; only the cold-start boot penalty
// (the setup phase the restore skipped) is charged analytically.
//
// Determinism is the contract, mirroring internal/sweep: every decision
// of a run is a pure function of (config, seed), with ties at equal
// virtual time broken by the des calendar (internal/des), so identical
// configs produce byte-identical tables, stats text and trace JSON for
// any worker count; parallelism (RunMany) exists across sweep points,
// never inside a run. See docs/loadgen.md.
package loadgen

import (
	"svbench/internal/faults"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/sweep"
	"svbench/internal/trace"
)

// Config describes one load run.
type Config struct {
	// Cfg is the simulated machine configuration every instance boots
	// with (gemsys.DefaultConfig of an ISA).
	Cfg gemsys.Config
	// Spec is the function under load (harness catalog entry).
	Spec harness.Spec
	// RPS is the mean arrival rate in invocations per virtual second.
	RPS float64
	// Duration is the arrival window in virtual nanoseconds; completions
	// drain past it (open loop).
	Duration uint64
	// Seed drives the arrival process PRNG.
	Seed uint64
	// Arrival selects the arrival process (Poisson default).
	Arrival Process
	// Burst is the Bursty process's batch size (0 = DefaultBurst).
	Burst int
	// KeepAlive is the idle-reclaim threshold in virtual nanoseconds: an
	// instance idle for this long is torn down, so the next arrival it
	// would have served pays a cold start. Zero reclaims immediately on
	// idling; a value beyond the run keeps every instance warm.
	KeepAlive uint64
	// MaxInstances caps the pool (0 = DefaultMaxInstances); arrivals
	// beyond the cap queue FIFO.
	MaxInstances int
	// Cache, when non-nil, memoizes post-boot checkpoints across runs
	// (RunMany shares one cache over all points of a sweep). Nil boots
	// one master per run.
	Cache *harness.BootCache
	// Retry, when non-nil, is the engine-level recovery policy: a failed
	// attempt (injected error reply, dropped request or reply, corrupted
	// reply, spec-check failure) is re-sent up to MaxAttempts times with
	// exponential backoff, and a lost message surfaces at the per-attempt
	// reply deadline. All Retry fields are read as virtual nanoseconds on
	// the load clock. Without a policy a failed attempt fails its
	// invocation outright.
	Retry *faults.Retry
	// Chaos, when non-nil, is the fault layer's hook into the event loop:
	// it is consulted exactly once per attempt, in deterministic event
	// order, and its outcome is applied to that attempt. The scenario
	// engine (internal/scenario) implements it over a windowed fault
	// plan; see docs/scenarios.md.
	Chaos AttemptHook
	// OnInstance, when non-nil, is called once per instance creation — in
	// deterministic event order, with the pool-assigned instance id and
	// the machine's guest→service channel bindings — so the fault layer
	// can aim per-service rules at a specific instance's channels.
	// Implementations must not simulate on the callback: it fires inside
	// the event loop.
	OnInstance func(instID int, bindings []harness.ServiceBinding)
}

// AttemptHook returns the fault outcome for one load-generator attempt.
// Implementations must be deterministic in call order: the engine calls
// Attempt exactly once per attempt, so seed-driven hooks reproduce the
// same schedule on every run.
type AttemptHook interface {
	// Attempt is invoked for attempt (1-based) of invocation inv, sent at
	// virtual time now.
	Attempt(inv, attempt int, now uint64) faults.AttemptFault
}

// DefaultMaxInstances is the pool cap when Config.MaxInstances is zero.
const DefaultMaxInstances = 4

// PoolCap is the effective pool cap: Config.MaxInstances with the
// default resolved. Report renderers must use this rather than echoing
// the raw field — Run keeps the user's config verbatim (like Burst), so
// a defaulted cap stays zero in Report.Cfg.
func (c Config) PoolCap() int {
	if c.MaxInstances <= 0 {
		return DefaultMaxInstances
	}
	return c.MaxInstances
}

// invokeBudget bounds one host-driven invocation's functional execution.
const invokeBudget = 200_000_000

// errorReplyNS is the round-trip time charged for an injected error
// reply: the platform fails the attempt fast without running the
// function, well below any real service time.
const errorReplyNS = 20_000

// pool is the keep-alive capacity policy: a warm instance when one is
// idle, else a cold start bound to the attempt while the pool is below
// its cap, else the FIFO queue. Idle instances are reclaimed lazily, at
// dispatch, once their lease has lapsed.
type pool struct {
	e        *Engine
	maxInst  int // effective pool cap (cfg.PoolCap())
	reclaims uint64
	reg      *trace.Registry
}

// Run executes one load run. The returned Report is a pure function of
// cfg: rerunning with the same config reproduces it byte-for-byte.
func Run(cfg Config) (*Report, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	// Retries emit extra events: size the ring for the worst-case attempt
	// count so no window of the run is overwritten.
	e.Tracer = trace.NewTracer(6*e.maxAttempts()*len(e.Invs) + 64)
	p := &pool{e: e, maxInst: cfg.PoolCap()}
	p.initRegistry()
	if err := e.Run(p, 0); err != nil {
		return nil, err
	}
	return p.report()
}

// RunMany executes one load run per config across a worker pool of jobs
// workers (0 = sweep.DefaultJobs()); configs without their own Cache
// share one, so all points of a sweep boot each fingerprint once.
// Reports come back in config order and each is byte-identical to a solo
// Run of the same config — parallelism only exists between points.
func RunMany(cfgs []Config, jobs int) ([]*Report, []error) {
	shared := harness.NewBootCache()
	reports := make([]*Report, len(cfgs))
	errs := make([]error, len(cfgs))
	sweep.Each(len(cfgs), jobs, func(i int) {
		c := cfgs[i]
		if c.Cache == nil {
			c.Cache = shared
		}
		reports[i], errs[i] = Run(c)
	})
	return reports, errs
}

func (p *pool) initRegistry() {
	e := p.e
	r := trace.NewRegistry()
	p.reg = r
	e.LatD = r.NewDist("load.latencyNS", "end-to-end invocation latency (virtual ns)")
	e.QueueD = r.NewDist("load.queueDelayNS", "arrival-to-placement queueing delay (virtual ns)")
	e.SvcD = r.NewDist("load.serviceNS", "on-instance service time (virtual ns)")
	e.ColdD = r.NewDist("load.coldPenaltyNS", "cold-start boot penalty (virtual ns)")
	r.Counter("load.coldStarts", "invocations that created an instance", &e.ColdStarts)
	r.Counter("load.warmStarts", "invocations served by a warm instance", &e.warmStarts)
	r.Counter("load.churnColdStarts", "post-warmup cold starts (keep-alive churn)", &e.ChurnColds)
	r.Counter("load.reclaims", "idle instances reclaimed by keep-alive", &p.reclaims)
	r.Counter("load.peakInstances", "pool high-water mark", &e.Peak)
	r.Counter("load.maxQueueDepth", "deepest FIFO backlog at the pool cap", &e.MaxQueue)
	r.Counter("load.checkFailures", "responses failing the spec's check", &e.CheckFailures)
	r.Func("load.invocations", "arrivals replayed against the pool", func() uint64 {
		return uint64(len(e.Invs))
	})
	// Chaos/retry-path statistics: registered unconditionally so the
	// stats schema is constant, zero on fault-free runs.
	r.Counter("load.attempts", "send attempts including retries", &e.attempts)
	r.Counter("load.retries", "attempts re-sent after a failure", &e.retries)
	r.Counter("load.timeouts", "attempts that hit the reply deadline", &e.timeouts)
	r.Counter("load.badReplies", "replies corrupted or failing the check", &e.badReplies)
	r.Counter("load.errorReplies", "injected fast-fail error replies", &e.errorReplies)
	r.Counter("load.faultedAttempts", "attempts the fault layer touched", &e.faulted)
	r.Counter("load.failedInvocations", "invocations that exhausted every attempt", &e.failed)
	r.Counter("load.recoveredInvocations", "invocations that succeeded after >= 1 retry", &e.recovered)
}

// Dispatch places one attempt arriving (or dequeued) at now onto a warm
// instance, a cold-started one, or the FIFO queue at the pool cap.
//
// Ordering contract at equal virtual timestamps: reclaim runs before
// placement, and reclaimExpired keeps only instances whose lease strictly
// outlives now — an instance whose lease ends exactly when an attempt
// arrives is already gone, so the attempt cold-starts. This matches the
// KeepAlive=0 semantics (reclaim on idling) and is pinned by
// TestReclaimDispatchTieBreak; flipping it would silently shift cold/warm
// accounting in scenario phase buckets.
func (p *pool) Dispatch(a Attempt, now uint64) error {
	p.reclaimExpired(now)
	if ok, err := p.e.Warm(a, now); ok || err != nil {
		return err
	}
	if p.e.live() < p.maxInst {
		s, err := p.e.acquire(now)
		if err != nil {
			return err
		}
		return p.e.start(a, now, s)
	}
	p.e.Enqueue(a)
	return nil
}

// Reconcile is a no-op: the pool has no periodic tick.
func (p *pool) Reconcile(uint64) error { return nil }

// reclaimExpired tears down idle instances whose lease ended at or before
// now, in the order they went idle, stamping each reclaim at its lease
// end (when it really happened).
func (p *pool) reclaimExpired(now uint64) {
	e := p.e
	kept := e.idle[:0]
	for _, s := range e.idle {
		end := e.leaseEnd(s)
		if end > now {
			kept = append(kept, s)
			continue
		}
		p.reclaims++
		e.Tracer.EmitAt(trace.EvInstReclaim, uint8(s.inst.ID), end, 0, uint64(s.inst.ID), 0)
		e.fleet.Release(s.inst)
	}
	e.idle = kept
}
