package mlmodels

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// TreeTask selects regression (variance reduction) or classification (Gini
// impurity) splitting for DecisionTree.
type TreeTask int

// Decision-tree tasks.
const (
	TreeRegression TreeTask = iota + 1
	TreeClassification
)

type treeNode struct {
	feature   int
	threshold float64
	value     float64 // leaf prediction
	// left and right index DecisionTree.nodes. left == 0 marks a leaf:
	// the root sits at index 0 and is nobody's child.
	left, right int
}

// DecisionTree is a CART tree supporting regression and classification with
// depth, leaf-size, and feature-subsampling controls (the latter for use
// inside RandomForest).
type DecisionTree struct {
	Task        TreeTask
	MaxDepth    int // 0 = unbounded
	MinLeaf     int // minimum samples per leaf (default 1)
	MaxFeatures int // features considered per split; 0 = all (honoured only inside RandomForest)

	nodes []treeNode // flat, root first; nil until fitted
}

// NewDecisionTree returns an unfitted CART tree.
func NewDecisionTree(task TreeTask) *DecisionTree {
	return &DecisionTree{Task: task, MinLeaf: 1}
}

// Name implements core.Component.
func (t *DecisionTree) Name() string { return "decisiontree" }

// SetParam implements core.Component; "max_depth" and "min_leaf" are
// supported.
func (t *DecisionTree) SetParam(key string, v float64) error {
	switch key {
	case "max_depth":
		t.MaxDepth = int(v)
	case "min_leaf":
		t.MinLeaf = int(v)
	default:
		return errUnknownParam(t.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (t *DecisionTree) Params() map[string]float64 {
	return map[string]float64{"max_depth": float64(t.MaxDepth), "min_leaf": float64(t.MinLeaf)}
}

// Clone implements core.Estimator.
func (t *DecisionTree) Clone() core.Estimator {
	return &DecisionTree{Task: t.Task, MaxDepth: t.MaxDepth, MinLeaf: t.MinLeaf, MaxFeatures: t.MaxFeatures}
}

// Fit grows the tree.
func (t *DecisionTree) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", t.Name())
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", t.Name())
	}
	if t.Task != TreeRegression && t.Task != TreeClassification {
		return fmt.Errorf("mlmodels: %s unknown task %d", t.Name(), t.Task)
	}
	b := newCartBuilder(presort(ds.X), ds.Y, t.Task)
	b.load(identityRows(ds.NumSamples()))
	t.nodes = b.grow(t, nil)
	return nil
}

// presorted is a column-major copy of a feature matrix with each column's
// row order sorted once, so every tree grown on it (or on a bootstrap
// resample of it) partitions instead of sorting.
type presorted struct {
	n, d  int
	x     []float64 // x[j*n+r]: feature j of row r
	order []int32   // order[j*n:(j+1)*n]: rows by ascending (x, row)
}

func presort(m *matrix.Matrix) *presorted {
	n, d := m.Rows(), m.Cols()
	p := &presorted{n: n, d: d, x: make([]float64, n*d), order: make([]int32, n*d)}
	for r := 0; r < n; r++ {
		for j, v := range m.Row(r) {
			p.x[j*n+r] = v
		}
	}
	for j := 0; j < d; j++ {
		col, ord := p.x[j*n:(j+1)*n], p.order[j*n:(j+1)*n]
		for r := range ord {
			ord[r] = int32(r)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return p
}

func identityRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// cartBuilder grows CART trees over slots: the samples one tree trains
// on, each naming a source row of the presorted matrix (a bootstrap may
// name a row several times). Every node owns a [lo,hi) range of each
// feature's slot order and of idx, the ascending slot order that leaf
// values sum in; a split stable-partitions all of them in O(n·d). The
// scratch is reused across the trees of one forest or boosting run.
type cartBuilder struct {
	p    *presorted
	task TreeTask
	srcY []float64 // targets by source row, read at each load

	classes []float64 // sorted distinct targets (classification)
	rowCls  []int32   // class index by source row (classification)

	m    int
	x    []float64 // x[j*m+s]: feature j of slot s
	y    []float64 // target of slot s
	cls  []int32   // class index of slot s (classification)
	ord  []int32   // ord[j*m:(j+1)*m]: slots by ascending (x, row, slot)
	idx  []int32   // slots, ascending within each node's range
	left []uint8   // by slot: 1 if it goes left at the split being applied
	buf  []int32   // partition spill

	start, next    []int32 // by source row: its first slot in bySlot, fill cursor
	bySlot         []int32 // slots grouped by source row, ascending
	feats          []int
	countL, countR []float64 // per-class counts (classification)
	nodes          []treeNode
}

func newCartBuilder(p *presorted, y []float64, task TreeTask) *cartBuilder {
	b := &cartBuilder{p: p, task: task, srcY: y, feats: make([]int, p.d)}
	if task == TreeClassification {
		b.classes = slices.Clone(y)
		slices.Sort(b.classes)
		b.classes = slices.Compact(b.classes)
		b.rowCls = make([]int32, len(y))
		for r, v := range y {
			c, _ := slices.BinarySearch(b.classes, v)
			b.rowCls[r] = int32(c)
		}
		b.countL = make([]float64, len(b.classes))
		b.countR = make([]float64, len(b.classes))
	}
	return b
}

func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load makes draw the next tree's slots: slot s trains on source row
// draw[s]. Each feature's slot order is derived from the presorted row
// order by counting, so no slot is ever sorted.
func (b *cartBuilder) load(draw []int) {
	p, m := b.p, len(draw)
	b.m = m
	b.x = sized(b.x, p.d*m)
	b.y = sized(b.y, m)
	b.ord = sized(b.ord, p.d*m)
	b.idx = sized(b.idx, m)
	b.left = sized(b.left, m)
	b.buf = sized(b.buf, m)
	b.bySlot = sized(b.bySlot, m)
	b.start = sized(b.start, p.n+1)
	b.next = sized(b.next, p.n)
	for j := 0; j < p.d; j++ {
		col, xs := p.x[j*p.n:(j+1)*p.n], b.x[j*m:(j+1)*m]
		for s, r := range draw {
			xs[s] = col[r]
		}
	}
	for s, r := range draw {
		b.y[s] = b.srcY[r]
		b.idx[s] = int32(s)
	}
	if b.task == TreeClassification {
		b.cls = sized(b.cls, m)
		for s, r := range draw {
			b.cls[s] = b.rowCls[r]
		}
	}

	clear(b.start)
	for _, r := range draw {
		b.start[r+1]++
	}
	for r := 0; r < p.n; r++ {
		b.start[r+1] += b.start[r]
	}
	copy(b.next, b.start[:p.n])
	for s, r := range draw {
		b.bySlot[b.next[r]] = int32(s)
		b.next[r]++
	}
	for j := 0; j < p.d; j++ {
		k := j * m
		for _, r := range p.order[j*p.n : (j+1)*p.n] {
			k += copy(b.ord[k:], b.bySlot[b.start[r]:b.start[r+1]])
		}
	}
}

// grow fits t on the loaded slots and returns its nodes. rng, when set,
// draws t.MaxFeatures candidate features per split.
func (b *cartBuilder) grow(t *DecisionTree, rng *rand.Rand) []treeNode {
	if t.MinLeaf < 1 {
		t.MinLeaf = 1
	}
	b.nodes = b.nodes[:0]
	b.node(t, rng, 0, b.m, 0)
	return slices.Clone(b.nodes)
}

// node grows the subtree over slot range [lo,hi) depth-first, left child
// first, so rng is consumed in a fixed order, and returns its index.
func (b *cartBuilder) node(t *DecisionTree, rng *rand.Rand, lo, hi, depth int) int {
	id := len(b.nodes)
	b.nodes = append(b.nodes, treeNode{})
	if hi-lo <= t.MinLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || b.pure(lo, hi) {
		b.nodes[id].value = b.leafValue(lo, hi)
		return id
	}
	feature, threshold, ok := b.bestSplit(t, rng, lo, hi)
	if !ok {
		b.nodes[id].value = b.leafValue(lo, hi)
		return id
	}
	mid := b.partition(feature, threshold, lo, hi)
	if mid == lo || mid == hi {
		b.nodes[id].value = b.leafValue(lo, hi)
		return id
	}
	left := b.node(t, rng, lo, mid, depth+1)
	right := b.node(t, rng, mid, hi, depth+1)
	b.nodes[id] = treeNode{feature: feature, threshold: threshold, left: left, right: right}
	return id
}

// bestSplit scans candidate features for the split minimizing weighted
// impurity (variance or Gini), walking each feature's presorted range.
func (b *cartBuilder) bestSplit(t *DecisionTree, rng *rand.Rand, lo, hi int) (feature int, threshold float64, ok bool) {
	features := b.feats
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < len(features) && rng != nil {
		rng.Shuffle(len(features), func(a, c int) { features[a], features[c] = features[c], features[a] })
		features = features[:t.MaxFeatures]
	}
	best := math.Inf(1)
	m := b.m
	for _, j := range features {
		ord, x := b.ord[j*m+lo:j*m+hi], b.x[j*m:(j+1)*m]
		var imp float64
		var k int
		if b.task == TreeClassification {
			imp, k = b.scanGini(ord, x, t.MinLeaf)
		} else {
			imp, k = b.scanVariance(ord, x, t.MinLeaf)
		}
		if k >= 0 && imp < best {
			best = imp
			feature = j
			threshold = (x[ord[k]] + x[ord[k+1]]) / 2
			ok = true
		}
	}
	return feature, threshold, ok
}

// scanVariance returns the lowest summed child variance over the cut
// points of ord (sorted by x) and the position k of the last left slot,
// or k = -1 when no cut satisfies minLeaf.
func (b *cartBuilder) scanVariance(ord []int32, x []float64, minLeaf int) (best float64, at int) {
	best, at = math.Inf(1), -1
	y := b.y
	var sumL, sqL, sumR, sqR float64
	for _, s := range ord {
		sumR += y[s]
		sqR += y[s] * y[s]
	}
	nL, nR := 0.0, float64(len(ord))
	for k := 0; k < len(ord)-1; k++ {
		v := y[ord[k]]
		sumL += v
		sqL += v * v
		sumR -= v
		sqR -= v * v
		nL++
		nR--
		if x[ord[k]] == x[ord[k+1]] {
			continue
		}
		if int(nL) < minLeaf || int(nR) < minLeaf {
			continue
		}
		varL := sqL - sumL*sumL/nL
		varR := sqR - sumR*sumR/nR
		if imp := varL + varR; imp < best {
			best, at = imp, k
		}
	}
	return best, at
}

// scanGini is scanVariance for size-weighted Gini impurity.
func (b *cartBuilder) scanGini(ord []int32, x []float64, minLeaf int) (best float64, at int) {
	best, at = math.Inf(1), -1
	countL, countR := b.countL, b.countR
	clear(countL)
	clear(countR)
	for _, s := range ord {
		countR[b.cls[s]]++
	}
	nL, nR := 0.0, float64(len(ord))
	for k := 0; k < len(ord)-1; k++ {
		c := b.cls[ord[k]]
		countL[c]++
		countR[c]--
		nL++
		nR--
		if x[ord[k]] == x[ord[k+1]] {
			continue
		}
		if int(nL) < minLeaf || int(nR) < minLeaf {
			continue
		}
		if imp := nL*gini(countL, nL) + nR*gini(countR, nR); imp < best {
			best, at = imp, k
		}
	}
	return best, at
}

// gini sums over classes in ascending order, so the impurity, and with it
// every tie between candidate splits, is the same on every fit.
func gini(counts []float64, n float64) float64 {
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// partition moves the slots of [lo,hi) with x[feature] <= threshold ahead
// of the rest in idx and in every feature order, keeping each side's
// order, and returns the boundary.
func (b *cartBuilder) partition(feature int, threshold float64, lo, hi int) int {
	m := b.m
	x := b.x[feature*m : (feature+1)*m]
	nLeft := 0
	for _, s := range b.idx[lo:hi] {
		var l uint8
		if x[s] <= threshold {
			l = 1
		}
		b.left[s] = l
		nLeft += int(l)
	}
	if nLeft == 0 || nLeft == hi-lo {
		return lo + nLeft
	}
	b.stablePartition(b.idx[lo:hi])
	for j := 0; j < b.p.d; j++ {
		b.stablePartition(b.ord[j*m+lo : j*m+hi])
	}
	return lo + nLeft
}

// stablePartition writes every slot to both sides and advances only the
// cursor of the side it belongs to, which keeps the loop branch-free.
func (b *cartBuilder) stablePartition(slots []int32) {
	l, r := 0, 0
	for _, s := range slots {
		toLeft := int(b.left[s])
		slots[l] = s
		b.buf[r] = s
		l += toLeft
		r += 1 - toLeft
	}
	copy(slots[l:], b.buf[:r])
}

func (b *cartBuilder) pure(lo, hi int) bool {
	first := b.y[b.idx[lo]]
	for _, s := range b.idx[lo+1 : hi] {
		if b.y[s] != first {
			return false
		}
	}
	return true
}

// leafValue is the majority class (smallest on ties) or the mean target,
// summed in ascending slot order.
func (b *cartBuilder) leafValue(lo, hi int) float64 {
	if b.task == TreeClassification {
		counts := b.countL
		clear(counts)
		for _, s := range b.idx[lo:hi] {
			counts[b.cls[s]]++
		}
		best := 0
		for c, n := range counts {
			if n > counts[best] {
				best = c
			}
		}
		return b.classes[best]
	}
	s := 0.0
	for _, slot := range b.idx[lo:hi] {
		s += b.y[slot]
	}
	return s / float64(hi-lo)
}

// Predict routes each row down the tree.
func (t *DecisionTree) Predict(ds *dataset.Dataset) ([]float64, error) {
	if t.nodes == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, t.Name())
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		row := ds.X.Row(i)
		node := &t.nodes[0]
		for node.left != 0 {
			if row[node.feature] <= node.threshold {
				node = &t.nodes[node.left]
			} else {
				node = &t.nodes[node.right]
			}
		}
		out[i] = node.value
	}
	return out, nil
}

// Depth returns the fitted tree's depth (0 for a single leaf).
func (t *DecisionTree) Depth() int {
	if t.nodes == nil {
		return 0
	}
	return t.depthOf(0)
}

func (t *DecisionTree) depthOf(i int) int {
	n := t.nodes[i]
	if n.left == 0 {
		return 0
	}
	return 1 + max(t.depthOf(n.left), t.depthOf(n.right))
}
