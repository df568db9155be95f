// Package delta implements the binary delta encoding of Section III: the
// home data store sends d(o1, e, k) — the difference between a node's
// version e and the latest version k — instead of the full object when the
// delta is considerably smaller, saving bandwidth.
//
// The algorithm is rsync-style: the old version is cut into fixed-size
// blocks indexed by a rolling weak hash; the new version is scanned with a
// sliding window, emitting Copy operations for block matches (verified
// byte-for-byte) and Insert operations for literal runs.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is wrapped by Apply/Unmarshal when a delta does not fit its
// base or its encoding is malformed.
var ErrCorrupt = errors.New("delta: corrupt delta")

// Op is one reconstruction step: a copy of Len bytes from offset Off of the
// base version (Data nil), or an insertion of literal Data.
type Op struct {
	Off  int64
	Len  int64
	Data []byte
}

// IsCopy reports whether the op copies from the base.
func (o Op) IsCopy() bool { return o.Data == nil }

// Delta encodes the difference between a base version and a target version.
type Delta struct {
	BlockSize int
	BaseLen   int64
	TargetLen int64
	Ops       []Op
}

// DefaultBlockSize is the block granularity used when callers pass 0.
const DefaultBlockSize = 64

// weak is a rolling Adler-style checksum over a fixed window.
type weak struct {
	a, b uint32
	n    uint32
}

func newWeak(p []byte) weak {
	var w weak
	w.n = uint32(len(p))
	for i, c := range p {
		w.a += uint32(c)
		w.b += uint32(len(p)-i) * uint32(c)
	}
	return w
}

// roll slides the window one byte: drop out, take in.
func (w *weak) roll(out, in byte) {
	w.a += uint32(in) - uint32(out)
	w.b += w.a - w.n*uint32(out)
}

func (w weak) sum() uint32 { return w.a | w.b<<16 }

// Compute builds a delta transforming base into target using the given
// block size (0 selects DefaultBlockSize).
func Compute(base, target []byte, blockSize int) *Delta {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	d := &Delta{BlockSize: blockSize, BaseLen: int64(len(base)), TargetLen: int64(len(target))}
	if len(target) == 0 {
		return d
	}
	if len(base) < blockSize {
		d.Ops = append(d.Ops, Op{Data: append([]byte(nil), target...)})
		return d
	}

	// Index base blocks by weak hash.
	blocks := map[uint32][]int{}
	for off := 0; off+blockSize <= len(base); off += blockSize {
		h := newWeak(base[off : off+blockSize]).sum()
		blocks[h] = append(blocks[h], off)
	}

	var pendingLit []byte
	flushLit := func() {
		if len(pendingLit) > 0 {
			d.Ops = append(d.Ops, Op{Data: pendingLit})
			pendingLit = nil
		}
	}
	emitCopy := func(off, n int) {
		// Merge with a preceding contiguous copy.
		if len(d.Ops) > 0 {
			last := &d.Ops[len(d.Ops)-1]
			if last.IsCopy() && last.Off+last.Len == int64(off) {
				last.Len += int64(n)
				return
			}
		}
		d.Ops = append(d.Ops, Op{Off: int64(off), Len: int64(n)})
	}

	i := 0
	var w weak
	valid := false
	for i+blockSize <= len(target) {
		if !valid {
			w = newWeak(target[i : i+blockSize])
			valid = true
		}
		matched := false
		if offs, ok := blocks[w.sum()]; ok {
			// Prefer the candidate that extends the previous copy, so
			// repetitive data collapses into one long contiguous op.
			var expect int64 = -1
			if len(d.Ops) > 0 && len(pendingLit) == 0 {
				if last := d.Ops[len(d.Ops)-1]; last.IsCopy() {
					expect = last.Off + last.Len
				}
			}
			pick := -1
			for _, off := range offs {
				if !bytesEqual(base[off:off+blockSize], target[i:i+blockSize]) {
					continue
				}
				if pick < 0 {
					pick = off
				}
				if int64(off) == expect {
					pick = off
					break
				}
			}
			if pick >= 0 {
				flushLit()
				emitCopy(pick, blockSize)
				i += blockSize
				valid = false
				matched = true
			}
		}
		if !matched {
			pendingLit = append(pendingLit, target[i])
			if i+blockSize < len(target) {
				// Slide the window: drop target[i], take target[i+blockSize].
				w.roll(target[i], target[i+blockSize])
			} else {
				valid = false
			}
			i++
		}
	}
	pendingLit = append(pendingLit, target[i:]...)
	flushLit()
	return d
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Apply reconstructs the target from the base and the delta.
func Apply(base []byte, d *Delta) ([]byte, error) {
	if int64(len(base)) != d.BaseLen {
		return nil, fmt.Errorf("%w: base length %d, delta expects %d", ErrCorrupt, len(base), d.BaseLen)
	}
	// TargetLen comes off the wire: preallocate no more than the base and
	// the literals can produce.
	limit := int64(len(base))
	for _, op := range d.Ops {
		limit += int64(len(op.Data))
	}
	out := make([]byte, 0, max(0, min(d.TargetLen, limit)))
	for i, op := range d.Ops {
		if op.IsCopy() {
			if op.Off < 0 || op.Len < 0 || op.Off > int64(len(base)) || op.Len > int64(len(base))-op.Off {
				return nil, fmt.Errorf("%w: op %d copies %d bytes at %d beyond base %d", ErrCorrupt, i, op.Len, op.Off, len(base))
			}
			out = append(out, base[op.Off:op.Off+op.Len]...)
		} else {
			out = append(out, op.Data...)
		}
	}
	if int64(len(out)) != d.TargetLen {
		return nil, fmt.Errorf("%w: reconstructed %d bytes, want %d", ErrCorrupt, len(out), d.TargetLen)
	}
	return out, nil
}

// Marshal encodes the delta in a compact varint wire format.
func (d *Delta) Marshal() []byte {
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(d.BlockSize))
	buf = binary.AppendUvarint(buf, uint64(d.BaseLen))
	buf = binary.AppendUvarint(buf, uint64(d.TargetLen))
	buf = binary.AppendUvarint(buf, uint64(len(d.Ops)))
	for _, op := range d.Ops {
		if op.IsCopy() {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(op.Off))
			buf = binary.AppendUvarint(buf, uint64(op.Len))
		} else {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(op.Data)))
			buf = append(buf, op.Data...)
		}
	}
	return buf
}

// WireSize returns the encoded size in bytes — the quantity the home data
// store compares against the full object to decide delta-vs-full.
func (d *Delta) WireSize() int { return len(d.Marshal()) }

// Unmarshal decodes a delta from its wire format.
func Unmarshal(buf []byte) (*Delta, error) {
	d := &Delta{}
	var n int
	read := func() (uint64, error) {
		v, sz := binary.Uvarint(buf[n:])
		if sz <= 0 {
			return 0, fmt.Errorf("%w: truncated varint at %d", ErrCorrupt, n)
		}
		n += sz
		return v, nil
	}
	bs, err := read()
	if err != nil {
		return nil, err
	}
	base, err := read()
	if err != nil {
		return nil, err
	}
	target, err := read()
	if err != nil {
		return nil, err
	}
	nops, err := read()
	if err != nil {
		return nil, err
	}
	d.BlockSize = int(bs)
	d.BaseLen = int64(base)
	d.TargetLen = int64(target)
	for i := uint64(0); i < nops; i++ {
		if n >= len(buf) {
			return nil, fmt.Errorf("%w: truncated op list", ErrCorrupt)
		}
		kind := buf[n]
		n++
		switch kind {
		case 0:
			off, err := read()
			if err != nil {
				return nil, err
			}
			length, err := read()
			if err != nil {
				return nil, err
			}
			d.Ops = append(d.Ops, Op{Off: int64(off), Len: int64(length)})
		case 1:
			length, err := read()
			if err != nil {
				return nil, err
			}
			if length > uint64(len(buf)-n) {
				return nil, fmt.Errorf("%w: truncated literal", ErrCorrupt)
			}
			d.Ops = append(d.Ops, Op{Data: append([]byte(nil), buf[n:n+int(length)]...)})
			n += int(length)
		default:
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, kind)
		}
	}
	return d, nil
}
