package persist

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocatedBy returns the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// replayAll runs every decoder of on-disk log bytes over path: tolerant and
// strict segment replay, the valid-prefix scan done at open, and snapshot
// load. It reports the tolerant replay's record count and the valid prefix.
func replayAll(t *testing.T, path string) (records, prefix int64) {
	t.Helper()
	noop := func(byte, string, []byte) error { return nil }
	records, err := replayFile(path, true, noop)
	if err != nil {
		t.Fatalf("tolerant replay: %v", err)
	}
	_, _ = replayFile(path, false, noop)
	if prefix, err = validWALPrefix(path); err != nil {
		t.Fatalf("validWALPrefix: %v", err)
	}
	_, _, _ = loadSnapshotFile(path, newTable())
	return records, prefix
}

// FuzzWALReplay feeds arbitrary segment bytes to the WAL and snapshot
// decoders. They must not panic, must allocate in proportion to the bytes
// on disk whatever the length fields claim, and the valid prefix must hold
// exactly the records a tolerant replay returns.
func FuzzWALReplay(f *testing.F) {
	var seg []byte
	seg = appendRecord(seg, opPut, "darr/a", []byte(`{"score":0.5}`))
	seg = appendRecord(seg, opDel, "darr/a", nil)
	seg = appendRecord(seg, opPut, "store/b", make([]byte, 40))
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn tail
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], 1)
	binary.LittleEndian.PutUint64(trailer[8:], 9)
	f.Add(appendRecord(appendRecord(nil, opPut, "k", []byte("v")), opCommit, "", trailer[:]))
	path := filepath.Join(f.TempDir(), segName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var records, prefix int64
		alloc := allocatedBy(func() { records, prefix = replayAll(t, path) })
		if limit := uint64(1<<20 + 64*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if prefix < 0 || prefix > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", prefix, len(data))
		}
		if err := os.WriteFile(path, data[:prefix], 0o644); err != nil {
			t.Fatal(err)
		}
		strict, err := replayFile(path, false, func(byte, string, []byte) error { return nil })
		if err != nil || strict != records {
			t.Fatalf("strict replay of the %d-byte valid prefix: %d records, %v; tolerant replay read %d", prefix, strict, err, records)
		}
	})
}

// An 8-byte segment whose header claims a 1 GiB record is torn: replay and
// open stop at it having allocated far less than the claim.
func TestWALReplayRejectsOversizedLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), segName(1))
	hdr := binary.LittleEndian.AppendUint32(nil, 1<<30)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	var records, prefix int64
	if alloc := allocatedBy(func() { records, prefix = replayAll(t, path) }); alloc >= 1<<20 {
		t.Fatalf("replaying a 1 GiB length header allocated %d bytes", alloc)
	}
	if records != 0 || prefix != 0 {
		t.Fatalf("records %d, valid prefix %d; want 0, 0", records, prefix)
	}
}
