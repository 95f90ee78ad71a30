package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"svbench/internal/autoscale"
	"svbench/internal/figures"
	"svbench/internal/gemsys"
	"svbench/internal/harness"
	"svbench/internal/isa"
	"svbench/internal/loadgen"
	"svbench/internal/rpc"
	"svbench/internal/stats"
	"svbench/internal/trace"
)

// deployItem is one (function, arch) pair a workload deploys: its
// boot-to-checkpoint is the workload's set-up step.
type deployItem struct {
	cfg  gemsys.Config
	spec harness.Spec
}

// setupBudget and evalBudget repeat the harness's phase budgets, so the
// traced run's direct calls run the phases exactly as the harness does.
const (
	setupBudget = 600_000_000
	evalBudget  = 600_000_000
)

// roundResult is what one timed round reports back: the operations it
// attempted and failed, and a digest of its outputs that must repeat
// exactly in every round of a run.
type roundResult struct {
	attempted, failed int
	digest            string
	counts            map[string]float64 // exact per-layer counts, filled by traced rounds
}

// workload is one benchmark workload: what it deploys, and one round of
// its timed phase, which runs either through the layers' top-level
// public APIs (rec == nil) or re-driven call by call with spans.
type workload struct {
	name   string
	deploy func() []deployItem
	round  func(cache *harness.BootCache, seed uint64, rec *recorder) (roundResult, error)
}

var workloads = []workload{
	{name: "paper", deploy: paperDeploy, round: paperRound},
	{name: "serve-warm", deploy: serveDeploy, round: warmRound},
	{name: "serve-churn", deploy: serveDeploy, round: churnRound},
}

// setup boots every item of the workload to its post-boot checkpoint
// into a fresh cache — the deploy step a serverless platform performs
// before the first request. With a recorder, the functional setup and
// the checkpoint capture are timed apart: RunSetup runs the machine to
// its pending checkpoint, after which CheckpointFor only captures it.
func setup(items []deployItem, rec *recorder) (cache *harness.BootCache, setupInsts uint64, err error) {
	cache = harness.NewBootCache()
	for _, it := range items {
		var b *harness.Boot
		err := rec.do("harness.boot", func() (err error) {
			b, err = harness.BootSpec(it.cfg, it.spec)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		var n uint64
		err = rec.do("harness.setup", func() (err error) {
			if rec != nil {
				if err := rec.do("isa.setup", func() error { return b.M.RunSetup(setupBudget) }); err != nil {
					return err
				}
				return rec.do("gemsys.checkpoint", func() (err error) {
					_, n, err = cache.CheckpointFor(b)
					return err
				})
			}
			_, n, err = cache.CheckpointFor(b)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("deploy %s/%s: %w", it.spec.Name, it.cfg.Arch, err)
		}
		setupInsts += n
	}
	return cache, setupInsts, nil
}

// paperDeploy is the default report's experiment matrix in the order
// figures.CollectWith runs it: arch major, then the standalone and shop
// functions, then the hotel functions on Cassandra.
func paperDeploy() []deployItem {
	var items []deployItem
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		cfg := gemsys.DefaultConfig(arch)
		for _, sp := range append(harness.StandaloneSpecs(), harness.ShopSpecs()...) {
			items = append(items, deployItem{cfg, sp})
		}
		for _, sp := range harness.HotelSpecs(harness.EngineCassandra) {
			items = append(items, deployItem{cfg, sp})
		}
	}
	return items
}

// paperReport is the committed report the paper workload must reproduce
// byte for byte; main reads it from docs/figures.md of the checkout.
var paperReport []byte

// paperRound regenerates the default evaluation report at one sweep
// worker and checks it against the committed docs/figures.md. The seed
// is not used: the report has no random input.
func paperRound(cache *harness.BootCache, _ uint64, rec *recorder) (roundResult, error) {
	var res *figures.Results
	var report string
	if rec == nil {
		var err error
		res, err = figures.CollectWith(figures.SweepOpts{Jobs: 1, Cache: cache})
		if err != nil {
			return roundResult{}, err
		}
		all, err := figures.ReportData(res, figures.ReportOpts{})
		if err != nil {
			return roundResult{}, err
		}
		report = figures.Render(res, all)
	} else {
		var err error
		res = paperSweepTraced(cache, rec)
		if report, err = paperRenderTraced(res, rec); err != nil {
			return roundResult{}, err
		}
	}
	items := len(paperDeploy())
	rr := roundResult{attempted: items + 1, failed: len(res.Failures)}
	if report != string(paperReport) {
		rr.failed++
	}
	rr.digest = digest(report)
	rr.counts = paperCounts(res)
	return rr, nil
}

// paperSweepTraced runs the experiment matrix the way harness.RunCached
// does for a cache hit, one public call at a time so each is timed:
// BootSpec, CheckpointFor (a cache hit, i.e. a checkpoint clone), then
// Boot.Measure's two steps, Restore and the detailed evaluation. The
// caller's report check proves the result equal to the untraced path.
func paperSweepTraced(cache *harness.BootCache, rec *recorder) *figures.Results {
	res := &figures.Results{
		Fn:    map[isa.Arch]map[string]*harness.Result{},
		Hotel: map[isa.Arch]map[string]*harness.Result{},
	}
	hotel := map[string]bool{}
	for _, sp := range harness.HotelSpecs(harness.EngineCassandra) {
		hotel[sp.Name] = true
	}
	for _, it := range paperDeploy() {
		arch := it.cfg.Arch
		if res.Fn[arch] == nil {
			res.Fn[arch] = map[string]*harness.Result{}
			res.Hotel[arch] = map[string]*harness.Result{}
		}
		r, err := measureTraced(it, cache, rec)
		if err != nil {
			res.Failures = append(res.Failures, &harness.ExperimentError{
				Spec: it.spec.Name, Arch: arch, Phase: "run", Err: err})
			continue
		}
		if hotel[it.spec.Name] {
			res.Hotel[arch][it.spec.Name] = r
		} else {
			res.Fn[arch][it.spec.Name] = r
		}
	}
	return res
}

func measureTraced(it deployItem, cache *harness.BootCache, rec *recorder) (*harness.Result, error) {
	var b *harness.Boot
	if err := rec.do("harness.boot", func() (err error) {
		b, err = harness.BootSpec(it.cfg, it.spec)
		return err
	}); err != nil {
		return nil, err
	}
	var ck *gemsys.Checkpoint
	var setupInsts uint64
	if err := rec.do("harness.setup", func() error {
		return rec.do("gemsys.clone", func() (err error) {
			ck, setupInsts, err = cache.CheckpointFor(b)
			return err
		})
	}); err != nil {
		return nil, err
	}
	var r *harness.Result
	err := rec.do("harness.measure", func() error {
		if err := rec.do("gemsys.restore", func() error { return b.M.Restore(ck) }); err != nil {
			return err
		}
		var dumps []stats.Dump
		err := rec.do("cpu.eval", func() (err error) {
			dumps, err = b.M.RunEvalSampled(evalBudget, it.spec.Sampling)
			return err
		})
		if err != nil {
			return err
		}
		if len(dumps) != 2 {
			return fmt.Errorf("got %d stat dumps, want 2", len(dumps))
		}
		r = &harness.Result{
			Name: it.spec.Name, Runtime: it.spec.Runtime, Arch: it.cfg.Arch,
			Cold: dumps[0].Server(), Warm: dumps[1].Server(),
			SampleCold: dumps[0].ServerSampling(), SampleWarm: dumps[1].ServerSampling(),
			SetupInsts: setupInsts,
			Response:   append([]byte(nil), b.M.K.Console.Bytes()...),
		}
		if check := it.spec.Check; check != nil {
			if err := check(rpc.NewReader(r.Response)); err != nil {
				return fmt.Errorf("response check: %w", err)
			}
		}
		return nil
	})
	return r, err
}

// paperRenderTraced assembles the report as figures.ReportData does with
// default options, timing the emulation study and the container tables
// apart from the projections and the rendering.
func paperRenderTraced(res *figures.Results, rec *recorder) (string, error) {
	var all []figures.Data
	rec.do("figures.render", func() error {
		all = []figures.Data{figures.Table41(),
			res.Fig44(), res.Fig45(), res.Fig46(), res.Fig47(), res.Fig48(), res.Fig49(),
			res.Fig410(), res.Fig411(), res.Fig412(), res.Fig413(), res.Fig414(),
			res.Fig415(), res.Fig416(), res.Fig417(), res.Fig418(), res.Fig419(),
			res.TableMPKI()}
		return nil
	})
	err := rec.do("qemu.emulate", func() error {
		d, err := figures.Fig420(6)
		all = append(all, d)
		return err
	})
	if err != nil {
		return "", err
	}
	err = rec.do("container.tables", func() error {
		t44, err := figures.Table44()
		if err != nil {
			return err
		}
		t45, err := figures.Table45()
		all = append(all, t44, t45)
		return err
	})
	if err != nil {
		return "", err
	}
	var report string
	rec.do("figures.render", func() error {
		report = figures.Render(res, all)
		return nil
	})
	return report, nil
}

// paperCounts sums the simulated statistics of every experiment's cold
// and warm windows: deterministic counts that a change meant only to
// speed up the simulator must leave identical.
func paperCounts(res *figures.Results) map[string]float64 {
	c := map[string]float64{}
	for _, byArch := range []map[isa.Arch]map[string]*harness.Result{res.Fn, res.Hotel} {
		for _, byName := range byArch {
			for _, r := range byName {
				for _, s := range []stats.CoreStats{r.Cold, r.Warm} {
					c["cpu.eval_insts"] += float64(s.Insts)
					c["cpu.sim_cycles"] += float64(s.Cycles)
					c["cpu.mispredicts"] += float64(s.Mispredicts)
					c["mem.l1i_misses"] += float64(s.L1IMisses)
					c["mem.l1d_misses"] += float64(s.L1DMisses)
					c["mem.l2_misses"] += float64(s.L2Misses)
					c["mem.tlb_misses"] += float64(s.ITLBMisses + s.DTLBMisses)
				}
			}
		}
	}
	return c
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// serveFunctions are the served functions, one per language runtime:
// compiled Go, interpreted Python and JIT-style Node.js guests differ in
// instruction mix and footprint, so together they exercise the
// functional interpreter broadly.
var serveFunctions = []string{"fibonacci-go", "aes-python", "auth-nodejs"}

func serveDeploy() []deployItem {
	var items []deployItem
	for _, arch := range []isa.Arch{isa.RV64, isa.CISC64} {
		for _, sp := range harness.StandaloneSpecs() {
			for _, name := range serveFunctions {
				if sp.Name == name {
					items = append(items, deployItem{gemsys.DefaultConfig(arch), sp})
				}
			}
		}
	}
	return items
}

// Serving sizes. serve-warm offers each pair a Poisson stream well
// under the default pool cap's capacity, with a keep-alive longer than
// the run, so after the first few cold starts every invocation is warm.
// serve-churn offers bursts of eight with keep-alive zero under the
// scale-to-zero policy, so most invocations wait for an instance
// restored from the master checkpoint. Each pair's arrival window ends
// right after its n-th arrival, so every seed offers the same number of
// invocations (and, for churn, of bursts): the seed moves arrival times,
// not the amount of work in a round.
const (
	warmRPS       = 20_000
	warmArrivals  = 500
	churnRPS      = 100
	churnBurst    = 8
	churnArrivals = 64
)

// windowFor returns the arrival window that holds exactly the first n
// arrivals of cfg's process. The process draws arrivals one after
// another, so the first n do not depend on the window's length.
func windowFor(cfg loadgen.Config, n int) uint64 {
	cfg.Duration = uint64(float64(n) / cfg.RPS * 1e9)
	for {
		cfg.Duration *= 2
		if arr := loadgen.Arrivals(cfg); len(arr) > n {
			return arr[n-1] + 1
		}
	}
}

func warmConfigs(cache *harness.BootCache, seed uint64) []loadgen.Config {
	var cfgs []loadgen.Config
	for i, it := range serveDeploy() {
		c := loadgen.Config{
			Cfg: it.cfg, Spec: it.spec,
			RPS:   warmRPS,
			Seed:  seed + uint64(i),
			Cache: cache,
		}
		c.Duration = windowFor(c, warmArrivals)
		c.KeepAlive = 10 * c.Duration
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func churnConfigs(cache *harness.BootCache, seed uint64) ([]autoscale.Config, error) {
	pol, err := autoscale.PolicyByName("scale-to-zero")
	if err != nil {
		return nil, err
	}
	var cfgs []autoscale.Config
	for i, it := range serveDeploy() {
		c := autoscale.Config{
			Cfg: it.cfg, Spec: it.spec,
			RPS:     churnRPS,
			Seed:    seed + uint64(i),
			Arrival: loadgen.Bursty, Burst: churnBurst,
			KeepAlive: 0,
			Policy:    pol,
			Cache:     cache,
		}
		c.Duration = windowFor(churnArrivalConfig(c), churnArrivals)
		cfgs = append(cfgs, c)
	}
	return cfgs, nil
}

// churnArrivalConfig is the arrival-process part of an autoscale config,
// in the form loadgen.Arrivals takes.
func churnArrivalConfig(c autoscale.Config) loadgen.Config {
	return loadgen.Config{RPS: c.RPS, Duration: c.Duration, Seed: c.Seed, Arrival: c.Arrival, Burst: c.Burst}
}

// warmRound runs every serve-warm pair through loadgen at one sweep
// worker and checks each report.
func warmRound(cache *harness.BootCache, seed uint64, rec *recorder) (roundResult, error) {
	return runWarm(warmConfigs(cache, seed), rec), nil
}

func runWarm(cfgs []loadgen.Config, rec *recorder) roundResult {
	reps := make([]*loadgen.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	if rec == nil {
		reps, errs = loadgen.RunMany(cfgs, 1)
	} else {
		for i, c := range cfgs {
			runtime.GC()
			errs[i] = rec.do("loadgen.run", func() (err error) {
				reps[i], err = loadgen.Run(c)
				return err
			})
		}
	}
	rr := roundResult{counts: map[string]float64{}}
	var parts []string
	for i, rep := range reps {
		n := len(loadgen.Arrivals(cfgs[i]))
		rr.attempted += n
		if errs[i] != nil || rep == nil {
			rr.failed += n
			continue
		}
		rr.failed += checkWarm(rep, n)
		parts = append(parts, rep.Table(), rep.StatsText)
		if rec != nil {
			rr.failed += replay(rr.counts, cfgs[i].Cfg, cfgs[i].Spec, cfgs[i].Cache, rep.Events, rep.TraceDropped,
				func(inv int) int { return rep.Invocations[inv].Instance }, rec)
			rr.counts["loadgen.invocations"] += float64(len(rep.Invocations))
			rr.counts["loadgen.cold_starts"] += float64(rep.ColdStarts)
		}
	}
	rr.digest = digest(parts...)
	return rr
}

// checkWarm returns how many of the n offered invocations the report
// shows as failed or inconsistent.
func checkWarm(rep *loadgen.Report, n int) int {
	if len(rep.Invocations) != n || rep.TraceDropped != 0 {
		return n
	}
	bad, completed := 0, 0
	for _, iv := range rep.Invocations {
		switch {
		case iv.Failed:
		case iv.CheckFailed || iv.Attempts != 1 || iv.Done < iv.Start || iv.Latency != iv.Done-iv.Arrive:
			bad++
			completed++
		default:
			completed++
		}
	}
	failed := int(rep.Failed)
	if completed+failed != n || rep.ColdStarts+rep.WarmStarts != uint64(n) || rep.CheckFailures != 0 {
		return n
	}
	return bad + failed
}

// churnRound runs every serve-churn pair through the autoscaler at one
// sweep worker and checks each report.
func churnRound(cache *harness.BootCache, seed uint64, rec *recorder) (roundResult, error) {
	cfgs, err := churnConfigs(cache, seed)
	if err != nil {
		return roundResult{}, err
	}
	return runChurn(cfgs, rec), nil
}

func runChurn(cfgs []autoscale.Config, rec *recorder) roundResult {
	reps := make([]*autoscale.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	if rec == nil {
		reps, errs = autoscale.RunMany(cfgs, 1)
	} else {
		for i, c := range cfgs {
			runtime.GC()
			errs[i] = rec.do("autoscale.run", func() (err error) {
				reps[i], err = autoscale.Run(c)
				return err
			})
		}
	}
	rr := roundResult{counts: map[string]float64{}}
	var parts []string
	for i, rep := range reps {
		c := cfgs[i]
		n := len(loadgen.Arrivals(churnArrivalConfig(c)))
		rr.attempted += n
		if errs[i] != nil || rep == nil {
			rr.failed += n
			continue
		}
		rr.failed += checkChurn(rep, n)
		parts = append(parts, rep.Table(), rep.StatsText)
		if rec != nil {
			rr.failed += replay(rr.counts, c.Cfg, c.Spec, c.Cache, rep.Events, rep.TraceDropped,
				func(inv int) int { return rep.Invocations[inv].Instance }, rec)
			rr.counts["loadgen.invocations"] += float64(len(rep.Invocations))
			rr.counts["loadgen.cold_starts"] += float64(rep.ScaleUps)
			rr.counts["autoscale.scale_ups"] += float64(rep.ScaleUps)
			rr.counts["autoscale.scale_downs"] += float64(rep.ScaleDowns)
			rr.counts["autoscale.ticks"] += float64(rep.Ticks)
		}
	}
	rr.digest = digest(parts...)
	return rr
}

func checkChurn(rep *autoscale.Report, n int) int {
	if len(rep.Invocations) != n || rep.TraceDropped != 0 || rep.CheckFailures != 0 {
		return n
	}
	bad := 0
	for _, iv := range rep.Invocations {
		if iv.CheckFailed || iv.Done < iv.Start || iv.Start < iv.Arrive || iv.Latency != iv.Done-iv.Arrive {
			bad++
		}
	}
	return bad
}

// replay re-drives one finished engine run's fleet calls directly, in
// the order the engine made them, so each Acquire, Serve and Release
// can be timed from outside: the engine's trace records a cold start
// after every Acquire, a run after every Serve and a reclaim next to
// every Release. Replayed machines start from the same master
// checkpoint and see the same requests, so every Serve must report the
// service time the engine recorded; it returns the number that did not
// and adds the simulated service time to counts.
func replay(counts map[string]float64, cfg gemsys.Config, spec harness.Spec, cache *harness.BootCache,
	events []trace.Event, dropped uint64, instOf func(inv int) int, rec *recorder) int {
	bad := 0
	// The engine run and its replay each start from a collected heap, so
	// the bookkeeping estimate (run minus replayed calls) does not depend
	// on which of them inherited more garbage.
	runtime.GC()
	err := rec.do("loadgen.replay", func() error {
		if dropped != 0 {
			return fmt.Errorf("trace dropped %d events", dropped)
		}
		var f *loadgen.Fleet
		if err := rec.do("loadgen.fleet_boot", func() (err error) {
			f, err = loadgen.NewFleet(cfg, spec, cache, nil)
			return err
		}); err != nil {
			return err
		}
		insts := map[int]*loadgen.Instance{}
		for _, ev := range events {
			switch ev.Kind {
			case trace.EvColdStart:
				var inst *loadgen.Instance
				if err := rec.do("loadgen.acquire", func() (err error) {
					inst, err = f.Acquire()
					return err
				}); err != nil {
					return err
				}
				insts[int(ev.Arg)] = inst
			case trace.EvInvokeRun:
				inst := insts[instOf(int(ev.Arg))]
				if inst == nil {
					return fmt.Errorf("invocation %d runs on an instance never started", ev.Arg)
				}
				var svc uint64
				var checkFailed bool
				if err := rec.do("loadgen.serve", func() (err error) {
					svc, checkFailed, err = f.Serve(inst, int(ev.Arg))
					return err
				}); err != nil {
					return err
				}
				if checkFailed || svc != ev.Arg2 {
					bad++
				}
				counts["loadgen.sim_ns"] += float64(svc)
			case trace.EvInstReclaim:
				if inst := insts[int(ev.Arg)]; inst != nil {
					rec.do("loadgen.release", func() error { f.Release(inst); return nil })
					delete(insts, int(ev.Arg))
				}
			}
		}
		return nil
	})
	if err != nil {
		return 1 + bad
	}
	return bad
}
