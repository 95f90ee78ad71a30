package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer. Offsets are from the
// recorder's start; parent is the index of the enclosing span or -1.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name up to its first dot: "gemsys.restore" belongs
// to layer "gemsys".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory for the whole run; they are written out
// only when the run ends, so recording costs one clock read and one
// append per boundary. A nil *recorder records nothing and only runs the
// calls, so the untraced deploy step shares the traced one's code.
type recorder struct {
	t0    time.Time
	spans []span
	open  int // index of the innermost open span, -1 at top level
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), open: -1} }

// do runs fn inside a span called name and returns fn's error.
func (r *recorder) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: r.open})
	r.open = i
	err := fn()
	r.spans[i].End = time.Since(r.t0)
	r.open = r.spans[i].Parent
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children of one parent run one after another on
// the benchmark's single goroutine, so they never overlap and their
// durations add.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerSelf sums self time per layer. The sum over all layers equals the
// summed duration of the top-level spans.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}

// rootTotal is the summed duration of the top-level spans; the traced
// wall minus this is the time spent outside every span ("other").
func rootTotal(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			t += s.dur()
		}
	}
	return t
}

// callStats summarises the spans called name.
type callStats struct {
	n     int
	total time.Duration
	p50   time.Duration
	tail  time.Duration
	// tailBP is the percentile tail reports, in hundredths of a percent;
	// 0 when fewer than 20 samples leave no percentile with ten samples
	// beyond it.
	tailBP int
}

func calls(spans []span, name string) callStats {
	var ds []time.Duration
	var cs callStats
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.dur())
			cs.total += s.dur()
		}
	}
	cs.n = len(ds)
	if cs.n == 0 {
		return cs
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	cs.p50 = ds[nearestRank(5000, cs.n)-1]
	cs.tail = cs.p50
	if cs.tailBP = tailPercentile(cs.n); cs.tailBP > 0 {
		cs.tail = ds[nearestRank(cs.tailBP, cs.n)-1]
	}
	return cs
}

// tailLadder lists the percentiles a per-call tail may report, highest
// first, in hundredths of a percent so ranks are exact integers.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// nearestRank is the 1-based nearest-rank index ceil(bp/10000 · n) of the
// percentile bp, given in hundredths of a percent.
func nearestRank(bp, n int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile is the highest percentile of tailLadder (in hundredths
// of a percent) that leaves at
// least ten of n samples strictly beyond its nearest-rank sample, or 0
// when none does. Reporting a percentile with fewer samples beyond it
// would let one slow call set the number.
func tailPercentile(n int) int {
	for _, bp := range tailLadder {
		if n-nearestRank(bp, n) >= 10 {
			return bp
		}
	}
	return 0
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
