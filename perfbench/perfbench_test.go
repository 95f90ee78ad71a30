package main

import (
	"reflect"
	"testing"
	"time"

	"svbench/internal/harness"
	"svbench/internal/loadgen"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int // want in hundredths of a percent
	}{
		{0, 0},
		{19, 0},      // p50 rank 10 leaves 9 beyond
		{20, 5000},   // p50 rank 10 leaves 10
		{39, 5000},   // p75 rank 30 leaves 9
		{40, 7500},   // p75 rank 30 leaves 10
		{100, 9000},  // p90 rank 90 leaves 10; p95 leaves 5
		{199, 9000},  // p95 rank 190 leaves 9
		{200, 9500},  // p95 rank 190 leaves 10
		{1000, 9900}, // p99 rank 990 leaves 10; p99.9 leaves 1
		{9999, 9900}, // p99.9 rank 9990 leaves 9
		{10000, 9990},
		{100000, 9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCallsReportsP50AndTail(t *testing.T) {
	var spans []span
	for i := 1; i <= 100; i++ {
		spans = append(spans, span{Name: "x.call", End: time.Duration(i), Parent: -1})
	}
	spans = append(spans, span{Name: "y.other", End: 1000, Parent: -1})
	cs := calls(spans, "x.call")
	if cs.n != 100 || cs.total != 5050 || cs.p50 != 50 || cs.tailBP != 9000 || cs.tail != 90 {
		t.Fatalf("calls = %+v", cs)
	}
	if cs := calls(spans, "y.other"); cs.tailBP != 0 || cs.tail != cs.p50 {
		t.Fatalf("one sample must report no tail percentile: %+v", cs)
	}
}

// TestSelfTimeNested builds the spans of a traced run by hand:
//
//	a [0,100)  ─ b [10,60) ─ c [20,30)
//	           └ d [70,90)
//	e [120,150)
func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{Name: "harness.a", Start: 0, End: 100, Parent: -1},
		{Name: "gemsys.b", Start: 10, End: 60, Parent: 0},
		{Name: "cpu.c", Start: 20, End: 30, Parent: 1},
		{Name: "gemsys.d", Start: 70, End: 90, Parent: 0},
		{Name: "harness.e", Start: 120, End: 150, Parent: -1},
	}
	if got, want := selfTimes(spans), []time.Duration{30, 40, 10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	want := map[string]time.Duration{"harness": 60, "gemsys": 60, "cpu": 10}
	if !reflect.DeepEqual(layers, want) {
		t.Fatalf("layerSelf = %v, want %v", layers, want)
	}
	var sum time.Duration
	for _, d := range layers {
		sum += d
	}
	if root := rootTotal(spans); sum != root || root != 130 {
		t.Fatalf("layers sum to %v, roots to %v; want both 130", sum, root)
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder()
	r.do("a.outer", func() error {
		r.do("b.inner", func() error { return nil })
		return r.do("b.inner", func() error { return nil })
	})
	r.do("a.next", func() error { return nil })
	var parents []int
	for _, s := range r.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	if !reflect.DeepEqual(parents, []int{-1, 0, 0, -1}) {
		t.Fatalf("parents = %v", parents)
	}
	var nilRec *recorder
	ran := false
	nilRec.do("a.x", func() error { ran = true; return nil })
	if !ran {
		t.Fatal("a nil recorder must still run the call")
	}
}

func TestDigestChecker(t *testing.T) {
	if digest("ab", "c") == digest("a", "bc") {
		t.Fatal("digest must separate its parts")
	}
	var r result
	r.Correct = true
	var prior []string
	for _, d := range []string{"x", "x", "x"} {
		r.add(roundResult{attempted: 5, digest: d}, prior)
		prior = append(prior, d)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted != 15 {
		t.Fatalf("equal digests: %+v", r)
	}
	r.add(roundResult{attempted: 5, digest: "y"}, prior)
	if r.Correct || r.Failed != 1 {
		t.Fatalf("a round with another digest must count as one failed operation: %+v", r)
	}
	var f result
	f.Correct = true
	f.add(roundResult{attempted: 5, failed: 2, digest: "x"}, nil)
	if f.Correct || f.Failed != 2 {
		t.Fatalf("failed checks must be counted: %+v", f)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %g", m)
	}
}

// TestPaperSmoke re-drives a reduced experiment matrix (fibonacci-go on
// both ISAs) through the traced path and requires results identical to
// the harness's own cached path.
func TestPaperSmoke(t *testing.T) {
	var items []deployItem
	for _, it := range paperDeploy() {
		if it.spec.Name == "fibonacci-go" {
			items = append(items, it)
		}
	}
	if len(items) != 2 {
		t.Fatalf("want fibonacci-go on two ISAs, got %d items", len(items))
	}
	rec := newRecorder()
	cache, setupInsts, err := setup(items, rec)
	if err != nil {
		t.Fatal(err)
	}
	if setupInsts == 0 {
		t.Fatal("deploy ran no setup instructions")
	}
	for _, it := range items {
		got, err := measureTraced(it, cache, rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := harness.RunCached(it.cfg, it.spec, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: traced result differs from harness.RunCached", it.spec.Name, it.cfg.Arch)
		}
	}
	hits, misses, _ := cache.Stats()
	if misses != 2 || hits != 4 {
		t.Fatalf("cache hits/misses = %d/%d, want 4/2", hits, misses)
	}
	// Two boots deploy, two more measure; every other call runs once per item.
	for name, want := range map[string]int{"harness.boot": 4, "isa.setup": 2, "gemsys.checkpoint": 2,
		"gemsys.clone": 2, "gemsys.restore": 2, "cpu.eval": 2} {
		if got := calls(rec.spans, name).n; got != want {
			t.Errorf("want %d %s spans, got %d", want, name, got)
		}
	}
}

// TestServeSmoke runs both serving workloads at reduced length, untraced
// and traced, and requires clean checks, identical output digests and
// an exact replay of every fleet call.
func TestServeSmoke(t *testing.T) {
	items := serveDeploy()
	if len(items) != 6 {
		t.Fatalf("want 6 (function, arch) pairs, got %d", len(items))
	}
	cache, _, err := setup(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		warm := warmConfigs(cache, seed)
		for i := range warm {
			warm[i].Duration = windowFor(warm[i], 20)
			if n := len(loadgen.Arrivals(warm[i])); n != 20 {
				t.Fatalf("window for 20 arrivals holds %d", n)
			}
		}
		churn, err := churnConfigs(cache, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range churn {
			churn[i].Duration = windowFor(churnArrivalConfig(churn[i]), 16)
			if n := len(loadgen.Arrivals(churnArrivalConfig(churn[i]))); n != 16 {
				t.Fatalf("window for 16 bursty arrivals holds %d", n)
			}
		}
		for name, runOnce := range map[string]func(*recorder) roundResult{
			"serve-warm":  func(r *recorder) roundResult { return runWarm(warm, r) },
			"serve-churn": func(r *recorder) roundResult { return runChurn(churn, r) },
		} {
			plain := runOnce(nil)
			rec := newRecorder()
			traced := runOnce(rec)
			if plain.attempted == 0 || plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("%s seed %d: attempted %d, failed %d untraced / %d traced",
					name, seed, plain.attempted, plain.failed, traced.failed)
			}
			if plain.digest != traced.digest {
				t.Fatalf("%s seed %d: traced output differs from untraced", name, seed)
			}
			if got := calls(rec.spans, "loadgen.serve").n; got != plain.attempted {
				t.Fatalf("%s seed %d: replayed %d serves for %d invocations", name, seed, got, plain.attempted)
			}
			if traced.counts["loadgen.cold_starts"] != float64(calls(rec.spans, "loadgen.acquire").n) {
				t.Fatalf("%s seed %d: replayed acquires differ from the engine's cold starts", name, seed)
			}
		}
	}
}
