package maxent

import "sync"

// dualScratch holds the work buffers of one dual solve: the primal
// x(λ) vector and the per-block partition partial sums of the fused
// exp/partition kernel. Sweeps solve the same-shaped dual dozens of
// times, so the buffers are pooled across solves instead of
// reallocated; a solve takes a scratch from the pool
// in newDualObjective and returns it via release. Buffers are never
// zeroed on reuse — every consumer fully overwrites them.
type dualScratch struct {
	x         []float64
	blockSums []float64
}

var dualScratchPool = sync.Pool{New: func() any { return new(dualScratch) }}

// newDualScratch takes a scratch from the pool and sizes the primal
// buffer for n active variables. The block-sum buffer is sized by Eval
// (it depends on the block partition).
func newDualScratch(n int) *dualScratch {
	s := dualScratchPool.Get().(*dualScratch)
	s.x = growFloats(s.x, n)
	return s
}

// release returns the scratch to the pool. The caller must not touch the
// buffers afterwards.
func (s *dualScratch) release() { dualScratchPool.Put(s) }

// growFloats resizes buf to length n, reusing its capacity when possible.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
