package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenDigest pins the exact bytes of one small hotel-reservation
// fabric run on rv64: its table, event log and trace JSON. Same-commit
// determinism tests cannot catch a change to the fabric's event order
// that is itself deterministic; this can.
func TestGoldenDigest(t *testing.T) {
	const want = "e3585060fb57ef9708135783a91c1a1d98698b98636918fcdc6dd87cffd63654"
	rep, err := Run(testConfig(HotelReservation(), 4))
	if err != nil {
		t.Fatal(err)
	}
	tj, err := rep.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(rep.Table()))
	h.Write([]byte(rep.EventLog))
	h.Write(tj)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
