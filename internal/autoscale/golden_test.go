package autoscale

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"svbench/internal/loadgen"
)

// digest is the byte-identity fingerprint of one run: the rendered
// table, the stats-registry text and the trace JSON.
func digest(r *Report) string {
	h := sha256.New()
	h.Write([]byte(r.Table()))
	h.Write([]byte(r.StatsText))
	h.Write(r.TraceJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins the exact bytes the autoscaler produces on
// fibonacci-go rv64: bursty arrivals under every catalog policy (with a
// lease short enough that scale-downs and churn happen), plus a
// memory-bound one-node cluster that rejects placements and queues.
// Same-commit determinism tests cannot catch a refactor that changes the
// output consistently; this can.
func TestGoldenDigests(t *testing.T) {
	want := map[string]string{
		"fixed-cap":     "dc0112851e7926c00d2e0f4dd50dbddfccb1369690d8ef4b3f5e6559848aaf28",
		"concurrency":   "a0e1bd7693ddbad2d030f73c3a91e55f71b8b27e5b370c20d1d3735cdaba3fee",
		"scale-to-zero": "891f0b3604534219ad03c855f2aadfb098267322ae56bda7a78dc3b3ef224294",
		"panic":         "6dac2f7d5142fa32b3b4371afb4a31f115f42c21eda7f6df4a89c1d47aaf8353",
		"full-cluster":  "d0849ee7f9cb89d5678cb13ccaa8dec15af8944d2fd7c8a1adeb5fa436a0c247",
	}
	type point struct {
		name string
		cfg  Config
	}
	var points []point
	for _, pol := range Policies() {
		c := testConfig(t)
		c.Policy = pol
		c.Arrival = loadgen.Bursty
		c.Burst = 8
		c.RPS = 4000
		c.KeepAlive = 1_000_000
		points = append(points, point{pol.Name(), c})
	}
	full := testConfig(t)
	full.Nodes = 1
	full.NodeCores = 4
	full.InstMemMB = 512
	full.NodeMemMB = 1024
	full.RPS = 20000
	full.Duration = 2_000_000
	full.Policy = Fixed{}
	points = append(points, point{"full-cluster", full})

	for _, p := range points {
		rep, err := Run(p.cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := digest(rep); got != want[p.name] {
			t.Errorf("%s: digest %s, want %s", p.name, got, want[p.name])
		}
	}
}
