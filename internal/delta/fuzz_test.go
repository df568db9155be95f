package delta

import (
	"bytes"
	"testing"
)

// FuzzDeltaApply feeds arbitrary wire bytes through Unmarshal and Apply,
// as a store reply reaches Replica.ApplyReply: whatever Unmarshal accepts,
// Apply must answer with a result or an error, never a panic, and a
// result must have the length the delta declares.
func FuzzDeltaApply(f *testing.F) {
	base := []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox")
	target := append(bytes.ToUpper(base[:20]), base[20:]...)
	f.Add(base, Compute(base, target, 8).Marshal())
	f.Add([]byte{}, Compute(nil, []byte("literal only"), 0).Marshal())
	f.Fuzz(func(t *testing.T, base, wire []byte) {
		d, err := Unmarshal(wire)
		if err != nil {
			return
		}
		out, err := Apply(base, d)
		if err == nil && int64(len(out)) != d.TargetLen {
			t.Fatalf("Apply returned %d bytes, delta declares %d", len(out), d.TargetLen)
		}
	})
}
