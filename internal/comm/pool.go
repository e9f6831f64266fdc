package comm

import (
	"sync"
	"sync/atomic"
)

// Pooled payload buffers for the hot comm path.  Every balance payload used
// to be a fresh allocation that died the moment the receiver decoded it;
// the pool recycles those buffers across messages and phases.
//
// Ownership protocol:
//
//   - A producer takes a buffer with GetBuf, appends its payload and hands
//     it to Send.  From that point the buffer belongs to the delivery path.
//   - The consumer that fully decodes a received payload into fresh memory
//     returns it with PutBuf.  A consumer that retains slices aliasing the
//     payload (ghost data bodies, Allgatherv blocks that are forwarded
//     around the ring) must NOT return it — leaking to the GC is always
//     safe, double-use is not.
//   - On an unreliable transport the reliable layer makes its own pooled
//     copies (see reliable.go), so sender and receiver never share a
//     backing array with the retransmit machinery.
//
// GetBuf may return nil (pool empty or pooling disabled); callers treat the
// result purely as an append base, so nil is a valid empty buffer.

// pooling gates the pool globally: SetPooling(false) turns GetBuf/PutBuf
// into no-ops, which is the A/B lever cmd/bench -pool=false uses to measure
// the allocation pressure the pool removes.
var pooling atomic.Bool

func init() { pooling.Store(true) }

// SetPooling enables or disables the payload buffer pool and reports the
// previous setting.  Disabling is safe at any time: buffers already handed
// out simply stop being recycled.
func SetPooling(on bool) bool { return pooling.Swap(on) }

// PoolingEnabled reports whether the payload buffer pool is active.
func PoolingEnabled() bool { return pooling.Load() }

// maxPooledCap bounds the capacity of recycled buffers so one huge payload
// (a partition transfer, say) does not pin its backing array in the pool
// forever: recycled into the small ghost and balance payloads that follow,
// a half-megabyte partition buffer of a two-rank 3D AMR step kept circulating
// and was still live at the end of the run.
const maxPooledCap = 1 << 18

var bufPool sync.Pool // of *[]byte; Get returns nil when empty

// GetBuf returns an empty payload buffer to append into, reusing a
// previously returned one when available.  May return nil; treat the result
// as an append base.
func GetBuf() []byte {
	if !pooling.Load() {
		return nil
	}
	if bp, _ := bufPool.Get().(*[]byte); bp != nil {
		return (*bp)[:0]
	}
	return nil
}

// PutBuf recycles a payload buffer.  nil and tiny or oversized buffers are
// dropped; the caller must not touch b afterwards.
func PutBuf(b []byte) {
	if !pooling.Load() || cap(b) < 64 || cap(b) > maxPooledCap {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
