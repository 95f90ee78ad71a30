package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"svbench/internal/faults"
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

// cyclicFault rotates through every fault kind by (inv, attempt), so one
// run fires dropped-request and dropped-reply deadlines, error replies,
// bad replies, delayed replies and slowed service, with retries tying on
// the same instants.
type cyclicFault struct{}

func (cyclicFault) Attempt(inv, attempt int, now uint64) faults.AttemptFault {
	switch (7*inv + attempt) % 8 {
	case 0:
		return faults.AttemptFault{DropRequest: true}
	case 1:
		return faults.AttemptFault{DropResponse: true}
	case 2:
		return faults.AttemptFault{ErrorReply: true}
	case 3:
		return faults.AttemptFault{BadReply: true}
	case 4:
		return faults.AttemptFault{DelayNS: 30_000}
	case 5:
		return faults.AttemptFault{ServiceMult: 3}
	}
	return faults.AttemptFault{}
}

// TestGoldenDigests pins the exact bytes the pool engine produces for a
// small grid of fibonacci-go rv64 runs: Poisson and bursty arrivals,
// immediate and 10 ms keep-alive, a pool cap of 2 that queues, and one
// chaos run under a retry policy. Same-commit determinism tests cannot
// catch a refactor that changes the output consistently; this can. A
// digest may only change together with an intended behaviour change.
func TestGoldenDigests(t *testing.T) {
	point := func(arr Process, keepAlive uint64) Config {
		c := testConfig(t)
		c.Arrival = arr
		c.Burst = 8
		c.RPS = 4000
		c.Duration = 20_000_000
		c.KeepAlive = keepAlive
		c.MaxInstances = 2
		return c
	}
	chaos := point(Bursty, 1_000_000)
	chaos.Retry = &faults.Retry{MaxAttempts: 3, Backoff: 100_000, Deadline: 1_000_000}
	chaos.Chaos = cyclicFault{}

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"poisson-ka0", point(Poisson, 0), "498783cdc623ea61befb789d257d3c07801b3a07944a28760c270ad3dd4a1fa8"},
		{"poisson-ka10ms", point(Poisson, 10_000_000), "b151c4cd893475e7424bd31a3cccf3f91bfae55242b7c72fd9130a8dff558142"},
		{"bursty8-ka0", point(Bursty, 0), "ada73aa2c941e1903f843e89a3bc31b622fdbba8f64461194268cc4789fb9755"},
		{"bursty8-ka10ms", point(Bursty, 10_000_000), "d32bba6b8da0bb5bfa46b9b52871bdd8e627b9449803c2e495778fdf4b9e40a9"},
		{"bursty8-chaos", chaos, "a6dde9c7e181adcbf09c3547f1c41f009ea92e157c6e3408f310d448799a684e"},
	} {
		rep, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := digest(rep); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
