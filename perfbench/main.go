// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload — the paper's evaluation report, warm serving, or
// churning serving — for a fixed time, checks every output, and prints
// one JSON result line:
//
//	perfbench --workload paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics (wall, CPU,
// set-up time, peak memory). With --trace 1 the run re-drives the same
// work call by call with spans around each layer's public functions and
// reports per-layer metrics instead. README.md in this directory maps
// every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"svbench/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir holds the run records and span files; it is the build
// directory the launcher already uses, inside the checkout.
const outDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper, serve-warm or serve-churn")
		seed    = fs.Uint64("seed", 1, "input seed (arrival processes of the serving workloads)")
		seconds = fs.Int("seconds", 20, "length of the timed phase in seconds, >= 1")
		traced  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper|serve-warm|serve-churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	var err error
	if paperReport, err = os.ReadFile(filepath.Join("docs", "figures.md")); err != nil {
		fmt.Fprintln(stderr, "perfbench: the paper check needs the committed report:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ps0 := readProcStat()
	var res result
	var extra map[string]any
	if *traced == 1 {
		res, extra, err = runTraced(wl, *seed)
	} else {
		res, extra, err = runTimed(wl, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	diag := diagnostics(*seed, ps0, readProcStat())
	diag["workload"] = wl.name
	for k, v := range extra {
		diag[k] = v
	}
	rec, err := json.Marshal(map[string]any{"diagnostics": diag})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: diagnostics:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(rec))
	fmt.Fprintln(stdout, string(out))
	return 0
}

// A run performs the deploy step at least minSetups times and until
// setupTime has passed (at most maxSetups times); setup_s is the median,
// so neither the first deploy of the process, which also fills
// process-wide caches, nor one slow deploy on a shared host sets it.
const (
	minSetups = 7
	maxSetups = 15
	setupTime = 2 * time.Second
)

// runTimed measures the workload's end-to-end metrics with tracing off:
// the deploy step several times, then timed rounds until the run's time
// is used up. Wall time, CPU time and peak resident memory are per-round
// medians.
func runTimed(wl *workload, seed uint64, budget time.Duration) (result, map[string]any, error) {
	items := wl.deploy()
	var cache *harness.BootCache
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupTime && len(setups) < maxSetups) {
		cache = nil // the previous deploy's checkpoints are garbage now
		runtime.GC()
		t0 := time.Now()
		c, _, err := setup(items, nil)
		if err != nil {
			return result{}, nil, err
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
		cache = c
	}
	runtime.GC()

	res := result{Correct: true}
	var walls, cpus, rss []float64
	var digests []string
	var rssReset bool
	ps0 := readProcStat()
	start := time.Now()
	for {
		// Every round starts from a collected heap, so what one round
		// left behind does not change the next one's garbage collection.
		runtime.GC()
		// Where the kernel refuses the reset, the peak covers the whole
		// process so far; the diagnostics record which one was measured.
		rssReset = resetPeakRSS()
		c0, t0 := cpuTime(), time.Now()
		rr, err := wl.round(cache, seed, nil)
		if err != nil {
			return result{}, nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		rss = append(rss, peakRSSMB())
		res.add(rr, digests)
		digests = append(digests, rr.digest)
		// Rounds start until the budget is spent, so the last one may
		// end past it.
		if time.Since(start) >= budget {
			break
		}
	}
	steal, iowait := ps0.share(readProcStat())
	hits, misses, rejected := cache.Stats()
	res.Metrics = map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {median(rss), "MiB"},
	}
	return res, map[string]any{
		"rounds":             len(walls),
		"round_wall_s":       walls,
		"round_cpu_s":        cpus,
		"round_peak_rss_mb":  rss,
		"peak_rss_per_round": rssReset,
		"setup_s_each":       setups,
		"output_digest":      digests[0],
		"timed_steal_share":  steal,
		"timed_iowait_share": iowait,
		"cache_hits":         hits,
		"cache_misses":       misses,
		"cache_rejected":     rejected,
	}, nil
}

// add folds one round's outcome into the result. A round whose output
// digest differs from the run's first round counts as a failed
// operation: every round repeats identical inputs on a deterministic
// simulator.
func (r *result) add(rr roundResult, prior []string) {
	r.Attempted += rr.attempted
	r.Failed += rr.failed
	if len(prior) > 0 && rr.digest != prior[0] {
		r.Failed++
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// runTraced times one untraced round, then deploys and runs one round
// again with every layer call inside a span, and derives the per-layer
// metrics from the spans and the round's exact counts.
func runTraced(wl *workload, seed uint64) (result, map[string]any, error) {
	items := wl.deploy()
	cache, _, err := setup(items, nil)
	if err != nil {
		return result{}, nil, err
	}
	runtime.GC()
	t0 := time.Now()
	first, err := wl.round(cache, seed, nil)
	if err != nil {
		return result{}, nil, err
	}
	untracedWall := time.Since(t0)
	cache = nil
	runtime.GC()

	rec := newRecorder()
	cache, setupInsts, err := setup(items, rec)
	if err != nil {
		return result{}, nil, err
	}
	runtime.GC()
	t1 := time.Now()
	rr, err := wl.round(cache, seed, rec)
	if err != nil {
		return result{}, nil, err
	}
	tracedWall := time.Since(t1)
	rr.counts["isa.setup_insts"] = float64(setupInsts)
	wall := time.Since(rec.t0)

	res := result{Correct: true}
	res.add(first, nil)
	res.add(rr, []string{first.digest})
	hits, misses, _ := cache.Stats()
	res.Metrics = layerMetrics(rec.spans, rr.counts)
	res.Metrics["harness.cache_hits"] = metric{float64(hits), "count"}
	res.Metrics["harness.cache_misses"] = metric{float64(misses), "count"}
	res.Metrics["trace.overhead_s"] = metric{(tracedWall - untracedWall).Seconds(), "s"}
	res.Metrics["trace.wall_s"] = metric{wall.Seconds(), "s"}
	res.Metrics["trace.other_s"] = metric{(wall - rootTotal(rec.spans)).Seconds(), "s"}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", wl.name, seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return result{}, nil, err
	}
	return res, map[string]any{
		"spans":           len(rec.spans),
		"spans_file":      path,
		"output_digest":   first.digest,
		"untraced_wall_s": untracedWall.Seconds(),
		"traced_wall_s":   tracedWall.Seconds(),
	}, nil
}

// layerMetrics derives the per-layer metrics from the traced run's spans
// and exact counts. Every metric is present on every workload, zero
// where the workload never calls that layer.
func layerMetrics(spans []span, counts map[string]float64) map[string]metric {
	m := map[string]metric{}
	sec := func(name string, d time.Duration) { m[name] = metric{d.Seconds(), "s"} }
	cnt := func(name string, v float64) { m[name] = metric{v, "count"} }

	sec("harness.boot_s", calls(spans, "harness.boot").total)
	sec("harness.setup_s", calls(spans, "harness.setup").total)
	sec("harness.measure_s", calls(spans, "harness.measure").total)
	sec("gemsys.checkpoint_s", calls(spans, "gemsys.checkpoint").total)
	sec("gemsys.restore_s", calls(spans, "gemsys.restore").total)
	sec("gemsys.clone_s", calls(spans, "gemsys.clone").total)

	setupInsts := counts["isa.setup_insts"]
	isaSetup := calls(spans, "isa.setup").total
	cnt("isa.setup_insts", setupInsts)
	m["isa.setup_mips"] = metric{ratio(setupInsts/1e6, isaSetup.Seconds()), "Minst/s"}

	eval := calls(spans, "cpu.eval").total
	sec("cpu.eval_s", eval)
	for _, k := range []string{"cpu.eval_insts", "cpu.sim_cycles", "cpu.mispredicts",
		"mem.l1i_misses", "mem.l1d_misses", "mem.l2_misses", "mem.tlb_misses"} {
		cnt(k, counts[k])
	}
	m["cpu.eval_kips"] = metric{ratio(counts["cpu.eval_insts"]/1e3, eval.Seconds()), "kinst/s"}

	boot := calls(spans, "loadgen.fleet_boot")
	acq := calls(spans, "loadgen.acquire")
	srv := calls(spans, "loadgen.serve")
	rel := calls(spans, "loadgen.release")
	sec("loadgen.fleet_boot_s", boot.total)
	sec("loadgen.acquire_s", acq.total)
	cnt("loadgen.acquire_calls", float64(acq.n))
	m["loadgen.acquire_p50_ms"] = metric{ms(acq.p50), "ms"}
	m["loadgen.acquire_tail_ms"] = metric{ms(acq.tail), "ms"}
	m["loadgen.acquire_tail_pct"] = metric{float64(acq.tailBP) / 100, "%"}
	sec("loadgen.serve_s", srv.total)
	cnt("loadgen.serve_calls", float64(srv.n))
	m["loadgen.serve_p50_us"] = metric{us(srv.p50), "us"}
	m["loadgen.serve_tail_us"] = metric{us(srv.tail), "us"}
	m["loadgen.serve_tail_pct"] = metric{float64(srv.tailBP) / 100, "%"}
	m["loadgen.host_ns_per_sim_ns"] = metric{ratio(float64(srv.total.Nanoseconds()), counts["loadgen.sim_ns"]), "ns/ns"}
	// The engines' own bookkeeping is their run time minus the fleet
	// calls the replay made on their behalf.
	fleet := boot.total + acq.total + srv.total + rel.total
	des := func(engine string) time.Duration {
		run := calls(spans, engine).total
		if run == 0 {
			return 0
		}
		return run - fleet
	}
	sec("loadgen.des_s", des("loadgen.run"))
	sec("autoscale.des_s", des("autoscale.run"))
	for _, k := range []string{"autoscale.scale_ups", "autoscale.scale_downs", "autoscale.ticks",
		"loadgen.invocations", "loadgen.cold_starts"} {
		cnt(k, counts[k])
	}

	sec("qemu.emulate_s", calls(spans, "qemu.emulate").total)
	sec("container.tables_s", calls(spans, "container.tables").total)
	sec("figures.render_s", calls(spans, "figures.render").total)

	self := layerSelf(spans)
	for _, l := range []string{"harness", "gemsys", "isa", "cpu", "loadgen", "autoscale", "qemu", "container", "figures"} {
		sec("self."+l+"_s", self[l])
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median of a non-empty sample; the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// buildRev is the VCS revision the binary was built from, as the go
// tool stamps it when the source tree is a git checkout.
func buildRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
