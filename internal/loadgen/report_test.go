package loadgen

import (
	"strings"
	"testing"

	"svbench/internal/faults"
)

// TestTableEchoesDefaultedPoolCap pins the rendered policy line: a
// config that leaves MaxInstances zero must echo the effective
// DefaultMaxInstances, the same way the Burst echo resolves its default
// — not "pool cap 0". The report is hand-built, since Run keeps the
// user's config verbatim in Report.Cfg.
func TestTableEchoesDefaultedPoolCap(t *testing.T) {
	r := &Report{Cfg: Config{KeepAlive: 10_000_000}}
	want := "policy       keep-alive 10.000 ms, pool cap 4\n"
	if !strings.Contains(r.Table(), want) {
		t.Fatalf("defaulted pool cap not resolved in table:\n%s", r.Table())
	}
	if strings.Contains(r.Table(), "pool cap 0") {
		t.Fatalf("table echoes the raw zero cap:\n%s", r.Table())
	}

	r.Cfg.MaxInstances = 7
	if !strings.Contains(r.Table(), "pool cap 7\n") {
		t.Fatalf("explicit pool cap not echoed:\n%s", r.Table())
	}
}

// TestRunKeepsConfigVerbatim pins that Run no longer mutates the echoed
// config: a defaulted MaxInstances stays zero in Report.Cfg while the
// engine still enforces the default cap.
func TestRunKeepsConfigVerbatim(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxInstances = 0
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cfg.MaxInstances != 0 {
		t.Fatalf("Run mutated Cfg.MaxInstances to %d", rep.Cfg.MaxInstances)
	}
	if rep.Cfg.PoolCap() != DefaultMaxInstances {
		t.Fatalf("PoolCap() = %d, want %d", rep.Cfg.PoolCap(), DefaultMaxInstances)
	}
	if rep.PeakInstances > DefaultMaxInstances {
		t.Fatalf("peak %d exceeds the default cap", rep.PeakInstances)
	}
}

// TestThroughputCountsOnlyCompletions pins the Throughput doc contract
// ("completions per virtual second"): failed invocations must not count.
// A chaos window fails part of the run outright (no retry policy), so
// Failed > 0 while others complete.
func TestThroughputCountsOnlyCompletions(t *testing.T) {
	cfg := testConfig(t)
	hook := &timedFault{start: 0, end: 20_000_000, f: faults.AttemptFault{ErrorReply: true}}
	cfg.Chaos = hook
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("window failed nothing; test needs Failed > 0")
	}
	completions := 0
	for _, inv := range rep.Invocations {
		if !inv.Failed {
			completions++
		}
	}
	if completions == 0 {
		t.Fatal("every invocation failed; test needs a mixed run")
	}
	want := float64(completions) * 1e9 / float64(rep.Makespan)
	if rep.Throughput != want {
		t.Fatalf("throughput %g counts failed invocations (want %g over %d completions, %d failed)",
			rep.Throughput, want, completions, rep.Failed)
	}
	old := float64(len(rep.Invocations)) * 1e9 / float64(rep.Makespan)
	if rep.Throughput >= old {
		t.Fatalf("throughput %g not below the all-invocations rate %g despite %d failures",
			rep.Throughput, old, rep.Failed)
	}
}

// TestPctsExactNearestRank is the table-driven boundary test for the
// nearest-rank index: ceil(p·n) computed in exact integer arithmetic.
// The old float expression (p·n + 0.999999) could misrank at large n.
func TestPctsExactNearestRank(t *testing.T) {
	seq := func(n int) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i + 1) // sorted: value k has rank k
		}
		return vals
	}
	cases := []struct {
		name          string
		n             int
		p50, p95, p99 uint64
	}{
		{"n=1: every percentile is the single value", 1, 1, 1, 1},
		{"n=2", 2, 1, 2, 2},
		{"n=100: rank = percentile exactly", 100, 50, 95, 99},
		{"n=101", 101, 51, 96, 100},
		{"n=1e6: large-n ranks stay exact", 1_000_000, 500_000, 950_000, 990_000},
	}
	for _, tc := range cases {
		p := Percentiles(seq(tc.n))
		if p.P50 != tc.p50 || p.P95 != tc.p95 || p.P99 != tc.p99 {
			t.Errorf("%s: got p50/p95/p99 = %d/%d/%d, want %d/%d/%d",
				tc.name, p.P50, p.P95, p.P99, tc.p50, tc.p95, tc.p99)
		}
		if p.Max != uint64(tc.n) {
			t.Errorf("%s: max = %d, want %d", tc.name, p.Max, tc.n)
		}
	}
	if got := Percentiles(nil); got != (Pcts{}) {
		t.Errorf("empty input: got %+v, want zero", got)
	}
}

// TestColdRateBoundedUnderRetries pins ColdRate's definition over
// invocations with Cold set. Keep-alive zero makes every attempt that
// reaches the pool cold-start, and a retry policy under an always-on
// error-reply window re-sends attempts — so the attempt-level ColdStarts
// counter exceeds the invocation count, which the old
// ColdStarts/invocations formula turned into a rate above 1.0.
func TestColdRateBoundedUnderRetries(t *testing.T) {
	cfg := testConfig(t)
	cfg.RPS = 100
	cfg.Duration = 20_000_000
	cfg.KeepAlive = 0
	cfg.Retry = &faults.Retry{MaxAttempts: 3, Backoff: 1_000_000, Deadline: 10_000_000}
	cfg.Chaos = &timedFault{start: 0, end: ^uint64(0), f: faults.AttemptFault{ErrorReply: true}}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rep.Invocations)
	if n == 0 || rep.Retries == 0 {
		t.Fatalf("run produced no retries (%d invocations)", n)
	}
	if rep.ColdStarts <= uint64(n) {
		t.Fatalf("test needs attempt-level cold starts (%d) above invocations (%d) to pin the regression",
			rep.ColdStarts, n)
	}
	oldRate := float64(rep.ColdStarts) / float64(n)
	if oldRate <= 1 {
		t.Fatalf("old formula gives %g, expected > 1 under retries", oldRate)
	}
	rate := rep.ColdRate()
	if rate < 0 || rate > 1 {
		t.Fatalf("ColdRate() = %g, must stay in [0, 1]", rate)
	}
	cold := 0
	for _, inv := range rep.Invocations {
		if inv.Cold {
			cold++
		}
	}
	if want := float64(cold) / float64(n); rate != want {
		t.Fatalf("ColdRate() = %g, want %g (%d of %d invocations cold)", rate, want, cold, n)
	}
}
