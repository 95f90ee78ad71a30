// Package autoscale is the cluster-scale capacity policy over loadgen's
// serving engine: N simulated worker nodes with finite cores and memory,
// a best-fit bin-packing placer for function instances, and pluggable
// autoscaling policies (fixed fleet, Knative-style concurrency target,
// scale-to-zero, panic mode with hysteresis) reacting to the same seeded
// arrival processes the keep-alive pool sees.
//
// loadgen.Engine runs the event loop — arrivals, warm picks, service on
// real simulated machines, completions. Where the keep-alive pool
// cold-starts capacity on demand, here a reconcile tick observes
// in-flight plus queued concurrency and scales the fleet toward the
// policy's desired count, placing new instances best-fit and reclaiming
// idle ones whose keep-alive lease lapsed. Arrivals that find no warm
// instance queue FIFO until a booted or freed instance takes them.
//
// One run is a pure function of (config, seed); the event order at equal
// timestamps is the des calendar's (internal/des). RunMany parallelizes
// only across sweep points, so policy × RPS grids are byte-identical for
// any worker count. See docs/autoscale.md.
package autoscale

import (
	"fmt"

	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/loadgen"
	"svbench/internal/sweep"
	"svbench/internal/trace"
)

// Defaults for zero-valued Config fields.
const (
	// DefaultNodes is the simulated worker-node count.
	DefaultNodes = 4
	// DefaultNodeCores is each node's core count; one running instance
	// occupies one core.
	DefaultNodeCores = 4
	// DefaultNodeMemMB is each node's memory in MB.
	DefaultNodeMemMB = 4096
	// DefaultInstMemMB is one instance's memory footprint in MB.
	DefaultInstMemMB = 512
	// DefaultTickNS is the reconcile period on the virtual clock: 50 µs,
	// a few warm service times — fine enough that a burst is observed
	// while its queue is still draining (a tick coarser than the drain
	// time would never see demand), far finer than keep-alive leases.
	DefaultTickNS = 50_000
	// DefaultSLO is the latency objective reports grade attainment
	// against: 100 µs virtual — generous for a warm fleet (tens of warm
	// service times) but unreachable for a request that waits out a full
	// cold-start boot, so a policy's churn shows up directly as misses.
	DefaultSLO = 100_000
	// DefaultKeepAlive is the idle lease before an instance becomes a
	// scale-down candidate (10 ms virtual, matching loadgen's default
	// keep-alive experiments).
	DefaultKeepAlive = 10_000_000
)

// Config describes one autoscaled cluster run.
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
	Arrival loadgen.Process
	// Burst is the Bursty process's batch size (0 = loadgen.DefaultBurst).
	Burst int

	// Nodes is the simulated worker-node count (0 = DefaultNodes).
	Nodes int
	// NodeCores is each node's core count (0 = DefaultNodeCores); one
	// running instance occupies one core.
	NodeCores int
	// NodeMemMB is each node's memory in MB (0 = DefaultNodeMemMB).
	NodeMemMB int
	// InstMemMB is one instance's memory footprint in MB
	// (0 = DefaultInstMemMB).
	InstMemMB int

	// Policy is the autoscaling strategy (nil = the concurrency-target
	// policy from the catalog).
	Policy Policy
	// TickNS is the reconcile period in virtual nanoseconds
	// (0 = DefaultTickNS).
	TickNS uint64
	// KeepAlive is the idle lease in virtual nanoseconds before an
	// instance becomes a scale-down candidate. Zero is meaningful (idle
	// instances are immediately reclaimable), so no default is resolved;
	// sweep builders wanting one use DefaultKeepAlive explicitly.
	KeepAlive uint64
	// SLO is the end-to-end latency objective in virtual nanoseconds
	// reports grade attainment against (0 = DefaultSLO).
	SLO uint64

	// Cache, when non-nil, memoizes post-boot checkpoints across runs
	// (RunMany shares one cache over all points of a sweep).
	Cache *harness.BootCache
}

// NodeCount is the effective worker-node count.
func (c Config) NodeCount() int {
	if c.Nodes <= 0 {
		return DefaultNodes
	}
	return c.Nodes
}

// CoresPerNode is the effective per-node core count.
func (c Config) CoresPerNode() int {
	if c.NodeCores <= 0 {
		return DefaultNodeCores
	}
	return c.NodeCores
}

// MemPerNode is the effective per-node memory in MB.
func (c Config) MemPerNode() int {
	if c.NodeMemMB <= 0 {
		return DefaultNodeMemMB
	}
	return c.NodeMemMB
}

// MemPerInstance is the effective per-instance memory footprint in MB.
func (c Config) MemPerInstance() int {
	if c.InstMemMB <= 0 {
		return DefaultInstMemMB
	}
	return c.InstMemMB
}

// Capacity is the cluster's instance capacity: per node, the smaller of
// core count and memory slots, summed over nodes.
func (c Config) Capacity() int {
	per := c.CoresPerNode()
	if slots := c.MemPerNode() / c.MemPerInstance(); slots < per {
		per = slots
	}
	return c.NodeCount() * per
}

// Tick is the effective reconcile period.
func (c Config) Tick() uint64 {
	if c.TickNS == 0 {
		return DefaultTickNS
	}
	return c.TickNS
}

// Objective is the effective latency SLO.
func (c Config) Objective() uint64 {
	if c.SLO == 0 {
		return DefaultSLO
	}
	return c.SLO
}

// ScalePolicy is the effective policy (the catalog's concurrency-target
// autoscaler when none is set).
func (c Config) ScalePolicy() Policy {
	if c.Policy == nil {
		return Concurrency{Label: "concurrency", Target: DefaultTarget, Min: 1}
	}
	return c.Policy
}

// node is one simulated worker's finite resources plus its lifetime
// accounting.
type node struct {
	cores     int
	memMB     int
	usedCores int
	usedMemMB int
	placed    uint64 // instances ever placed here
}

// place returns the best-fit node for an instance consuming one core and
// memMB of memory: among nodes it fits on, the one with the fewest free
// cores (ties: least free memory, then lowest index), or -1 when the
// cluster is full. Best-fit packs instances densely, so whole nodes
// drain to idle and utilization concentrates — the bin-packing shape
// real schedulers aim for.
func place(nodes []node, memMB int) int {
	best := -1
	for i := range nodes {
		n := &nodes[i]
		if n.usedCores+1 > n.cores || n.usedMemMB+memMB > n.memMB {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &nodes[best]
		fc, fb := n.cores-n.usedCores, b.cores-b.usedCores
		if fc < fb || (fc == fb && n.memMB-n.usedMemMB < b.memMB-b.usedMemMB) {
			best = i
		}
	}
	return best
}

// autoscaler is the cluster capacity policy over loadgen's serving
// engine: arrivals take a warm instance or queue FIFO, and a reconcile
// tick scales the fleet toward the policy's desired count.
type autoscaler struct {
	cfg Config
	eng *loadgen.Engine
	// coreCap is the autoscaler's clamp: the core capacity it knows about
	// (nodes × cores). Memory pressure is the placer's to discover — a
	// desired count that fits core-wise but not memory-wise surfaces as
	// rejected placements, the way a real scheduler learns a cluster is
	// full.
	coreCap  int
	scaler   Scaler
	nodes    []node
	instNode []int // node of each instance, by fleet id
	inPanic  bool

	// Counters registered into the stats registry.
	scaleDowns    uint64
	rejected      uint64
	panicEntries  uint64
	panicExits    uint64
	ticks         uint64
	sloViolations uint64

	reg *trace.Registry
}

// Run executes one autoscaled cluster run. The returned Report is a pure
// function of cfg: rerunning with the same config reproduces it
// byte-for-byte.
func Run(cfg Config) (*Report, error) {
	if cfg.Nodes < 0 || cfg.NodeCores < 0 || cfg.NodeMemMB < 0 || cfg.InstMemMB < 0 {
		return nil, fmt.Errorf("autoscale: cluster dimensions must be >= 0")
	}
	if cfg.MemPerInstance() > cfg.MemPerNode() {
		return nil, fmt.Errorf("autoscale: instance memory %d MB exceeds node memory %d MB",
			cfg.MemPerInstance(), cfg.MemPerNode())
	}
	eng, err := loadgen.NewEngine(loadgen.Config{
		Cfg: cfg.Cfg, Spec: cfg.Spec, RPS: cfg.RPS, Duration: cfg.Duration, Seed: cfg.Seed,
		Arrival: cfg.Arrival, Burst: cfg.Burst, KeepAlive: cfg.KeepAlive, Cache: cfg.Cache,
	})
	if err != nil {
		return nil, err
	}
	// Arrive/run/done plus scale and panic markers; ticks add at most one
	// panic transition each, so size for the worst case.
	eng.Tracer = trace.NewTracer(8*len(eng.Invs) + 4096)
	a := &autoscaler{
		cfg:     cfg,
		eng:     eng,
		coreCap: cfg.NodeCount() * cfg.CoresPerNode(),
		scaler:  cfg.ScalePolicy().New(),
		nodes:   make([]node, cfg.NodeCount()),
	}
	for i := range a.nodes {
		a.nodes[i] = node{cores: cfg.CoresPerNode(), memMB: cfg.MemPerNode()}
	}
	a.initRegistry()
	if err := eng.Run(a, cfg.Tick()); err != nil {
		return nil, err
	}
	return a.report()
}

// RunMany executes one run per config across a worker pool of jobs
// workers (0 = sweep.DefaultJobs()); configs without their own Cache
// share one, so all points of a policy × RPS sweep boot each fingerprint
// once. Reports come back in config order and each is byte-identical to
// a solo Run of the same config.
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

func (a *autoscaler) initRegistry() {
	e := a.eng
	r := trace.NewRegistry()
	a.reg = r
	e.LatD = r.NewDist("autoscale.latencyNS", "end-to-end invocation latency (virtual ns)")
	e.QueueD = r.NewDist("autoscale.waitNS", "arrival-to-service wait (queueing + boot readiness, virtual ns)")
	e.SvcD = r.NewDist("autoscale.serviceNS", "on-instance service time (virtual ns)")
	e.ColdD = r.NewDist("autoscale.coldPenaltyNS", "cold-start boot penalty (virtual ns)")
	r.Counter("autoscale.scaleUps", "instances the autoscaler started", &e.ColdStarts)
	r.Counter("autoscale.scaleDowns", "idle instances the autoscaler reclaimed", &a.scaleDowns)
	r.Counter("autoscale.churnColdStarts", "post-peak scale-ups refilling reclaimed capacity", &e.ChurnColds)
	r.Counter("autoscale.rejectedScaleUps", "scale-up decisions the full cluster could not place", &a.rejected)
	r.Counter("autoscale.peakInstances", "fleet high-water mark", &e.Peak)
	r.Counter("autoscale.maxQueueDepth", "deepest FIFO backlog awaiting capacity", &e.MaxQueue)
	r.Counter("autoscale.panicEntries", "panic-mode entries", &a.panicEntries)
	r.Counter("autoscale.panicExits", "panic-mode exits", &a.panicExits)
	r.Counter("autoscale.ticks", "reconcile invocations (periodic + activator kicks)", &a.ticks)
	r.Counter("autoscale.sloViolations", "invocations finishing beyond the SLO", &a.sloViolations)
	r.Counter("autoscale.checkFailures", "responses failing the spec's check", &e.CheckFailures)
	r.Func("autoscale.invocations", "arrivals replayed against the cluster", func() uint64 {
		return uint64(len(e.Invs))
	})
	r.Func("autoscale.capacity", "cluster instance capacity", func() uint64 {
		return uint64(a.cfg.Capacity())
	})
}

// Dispatch admits one invocation: served immediately on a warm instance
// when one is idle, otherwise queued FIFO — and if nothing is live or
// booting, the queued arrival kicks an immediate reconcile (the
// activator path that wakes a scaled-to-zero fleet).
func (a *autoscaler) Dispatch(at loadgen.Attempt, now uint64) error {
	if ok, err := a.eng.Warm(at, now); ok || err != nil {
		return err
	}
	a.eng.Enqueue(at)
	if starting, idle, busy, _ := a.eng.Counts(); starting+idle+busy == 0 {
		return a.Reconcile(now)
	}
	return nil
}

// Reconcile is one autoscaler invocation: observe the cluster, ask the
// policy for a desired count, and scale toward it — up through the
// bin-packing placer, down by reclaiming lease-expired idle instances.
func (a *autoscaler) Reconcile(now uint64) error {
	a.ticks++
	starting, idle, busy, queued := a.eng.Counts()
	obs := Observation{
		Now: now, Ready: idle + busy, Starting: starting,
		Busy: busy, Queued: queued,
	}
	desired := a.scaler.Desired(obs)
	if p, ok := a.scaler.(Panicker); ok {
		if in := p.InPanic(); in != a.inPanic {
			a.inPanic = in
			if in {
				a.panicEntries++
				a.eng.Tracer.EmitAt(trace.EvPanicMode, 0, now, 0, 1, 0)
			} else {
				a.panicExits++
				a.eng.Tracer.EmitAt(trace.EvPanicMode, 0, now, 0, 0, 0)
			}
		}
	}
	if desired < 0 {
		desired = 0
	}
	if obs.Demand() > 0 && desired < 1 {
		// Liveness floor: pending work must always pull at least one
		// instance, whatever the policy says.
		desired = 1
	}
	if desired > a.coreCap {
		desired = a.coreCap
	}
	live := starting + idle + busy
	if desired > live {
		return a.scaleUp(desired-live, now)
	}
	if desired < live {
		a.scaleDown(live-desired, now)
	}
	return nil
}

// scaleUp cold-starts n instances: each is placed best-fit onto a node,
// restored from the master checkpoint, and becomes ready once its boot
// penalty elapses. A full cluster rejects the remainder (counted, not
// queued — the demand stays visible to the next tick).
func (a *autoscaler) scaleUp(n int, now uint64) error {
	mem := a.cfg.MemPerInstance()
	for i := 0; i < n; i++ {
		nd := place(a.nodes, mem)
		if nd < 0 {
			a.rejected += uint64(n - i)
			return nil
		}
		inst, err := a.eng.Boot(now)
		if err != nil {
			return err
		}
		a.nodes[nd].usedCores++
		a.nodes[nd].usedMemMB += mem
		a.nodes[nd].placed++
		// Fleet ids are the creation sequence, so this is instNode[inst.ID].
		a.instNode = append(a.instNode, nd)
		a.eng.Tracer.EmitAt(trace.EvScaleUp, uint8(nd), now, 0, uint64(inst.ID), uint64(nd))
	}
	return nil
}

// scaleDown reclaims up to n idle instances whose keep-alive lease ended
// at or before now, longest-idle first (ties: lowest instance id).
// Busy and starting instances are never torn down.
func (a *autoscaler) scaleDown(n int, now uint64) {
	for ; n > 0; n-- {
		inst := a.eng.Retire(now)
		if inst == nil {
			return
		}
		nd := a.instNode[inst.ID]
		a.nodes[nd].usedCores--
		a.nodes[nd].usedMemMB -= a.cfg.MemPerInstance()
		a.scaleDowns++
		a.eng.Tracer.EmitAt(trace.EvInstReclaim, uint8(inst.ID), now, 0, uint64(inst.ID), 0)
		a.eng.Tracer.EmitAt(trace.EvScaleDown, uint8(nd), now, 0, uint64(inst.ID), uint64(nd))
	}
}
