package matrix

import "math"

// TopK selects the k nearest of a stream of (distance, index) candidates
// pushed in ascending index order, without sorting the stream. It keeps a
// k-slot buffer ordered by distance and inserts with a strict <, so among
// equal distances the earlier (lower-index) candidate ranks first and a
// candidate tying the current k-th never displaces it: the selection is
// the first k of a stable sort by distance. A NaN distance counts as +Inf.
// Cost is O(n·k) worst case and O(n) when most candidates are rejected
// against the k-th; Reset allocates only when k outgrows the buffer.
//
// KNN prediction and KNN imputation share it so both resolve ties the
// same way.
type TopK struct {
	k    int
	dist []float64
	idx  []int
}

// Reset empties the selection and sets its size to k; k < 1 selects
// nothing.
func (t *TopK) Reset(k int) {
	k = max(k, 0)
	if cap(t.idx) < k {
		t.dist = make([]float64, 0, k)
		t.idx = make([]int, 0, k)
	}
	t.k, t.dist, t.idx = k, t.dist[:0], t.idx[:0]
}

// Push offers candidate i at distance d.
func (t *TopK) Push(d float64, i int) {
	if d != d {
		d = math.Inf(1)
	}
	n := len(t.dist)
	if n == t.k {
		if n == 0 || !(d < t.dist[n-1]) {
			return
		}
		n-- // the current k-th drops out
	} else {
		t.dist, t.idx = t.dist[:n+1], t.idx[:n+1]
	}
	for n > 0 && d < t.dist[n-1] {
		t.dist[n], t.idx[n] = t.dist[n-1], t.idx[n-1]
		n--
	}
	t.dist[n], t.idx[n] = d, i
}

// Indices returns the selected candidates, nearest first. The slice is
// reused by the next Reset.
func (t *TopK) Indices() []int { return t.idx }
