package mlmodels

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"coda/internal/dataset"
	"coda/internal/matrix"
)

// refTree is the sort-per-node CART split search that the presorted
// builder replaced, kept as the reference the builder is checked against.
// Its Gini sums classes in ascending order, so it is deterministic too.
type refTree struct {
	task        TreeTask
	maxDepth    int
	minLeaf     int
	maxFeatures int
	rng         *rand.Rand
}

type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	value       float64
	leaf        bool
}

func (t *refTree) fit(ds *dataset.Dataset) *refNode {
	if t.minLeaf < 1 {
		t.minLeaf = 1
	}
	idx := make([]int, ds.NumSamples())
	for i := range idx {
		idx[i] = i
	}
	return t.grow(ds, idx, 0)
}

func (t *refTree) grow(ds *dataset.Dataset, idx []int, depth int) *refNode {
	if len(idx) <= t.minLeaf || (t.maxDepth > 0 && depth >= t.maxDepth) || refPure(ds.Y, idx) {
		return &refNode{leaf: true, value: t.leafValue(ds.Y, idx)}
	}
	feature, threshold, ok := t.bestSplit(ds, idx)
	if !ok {
		return &refNode{leaf: true, value: t.leafValue(ds.Y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if ds.X.At(i, feature) <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &refNode{leaf: true, value: t.leafValue(ds.Y, idx)}
	}
	return &refNode{
		feature:   feature,
		threshold: threshold,
		left:      t.grow(ds, left, depth+1),
		right:     t.grow(ds, right, depth+1),
	}
}

func (t *refTree) bestSplit(ds *dataset.Dataset, idx []int) (feature int, threshold float64, ok bool) {
	features := make([]int, ds.NumFeatures())
	for j := range features {
		features[j] = j
	}
	if t.maxFeatures > 0 && t.maxFeatures < len(features) && t.rng != nil {
		t.rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.maxFeatures]
	}
	best := math.Inf(1)
	type pair struct{ x, y float64 }
	pairs := make([]pair, len(idx))
	for _, j := range features {
		for k, i := range idx {
			pairs[k] = pair{ds.X.At(i, j), ds.Y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].x < pairs[b].x })
		switch t.task {
		case TreeRegression:
			var sumL, sqL float64
			sumR, sqR := 0.0, 0.0
			for _, p := range pairs {
				sumR += p.y
				sqR += p.y * p.y
			}
			nL, nR := 0.0, float64(len(pairs))
			for k := 0; k < len(pairs)-1; k++ {
				y := pairs[k].y
				sumL += y
				sqL += y * y
				sumR -= y
				sqR -= y * y
				nL++
				nR--
				if pairs[k].x == pairs[k+1].x {
					continue
				}
				if int(nL) < t.minLeaf || int(nR) < t.minLeaf {
					continue
				}
				varL := sqL - sumL*sumL/nL
				varR := sqR - sumR*sumR/nR
				if imp := varL + varR; imp < best {
					best = imp
					feature = j
					threshold = (pairs[k].x + pairs[k+1].x) / 2
					ok = true
				}
			}
		case TreeClassification:
			countsR := map[float64]float64{}
			for _, p := range pairs {
				countsR[p.y]++
			}
			countsL := map[float64]float64{}
			nL, nR := 0.0, float64(len(pairs))
			for k := 0; k < len(pairs)-1; k++ {
				y := pairs[k].y
				countsL[y]++
				countsR[y]--
				nL++
				nR--
				if pairs[k].x == pairs[k+1].x {
					continue
				}
				if int(nL) < t.minLeaf || int(nR) < t.minLeaf {
					continue
				}
				if imp := nL*refGini(countsL, nL) + nR*refGini(countsR, nR); imp < best {
					best = imp
					feature = j
					threshold = (pairs[k].x + pairs[k+1].x) / 2
					ok = true
				}
			}
		}
	}
	return feature, threshold, ok
}

// refGini sums over classes in ascending order.
func refGini(counts map[float64]float64, n float64) float64 {
	classes := make([]float64, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Float64s(classes)
	g := 1.0
	for _, c := range classes {
		p := counts[c] / n
		g -= p * p
	}
	return g
}

func refPure(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func (t *refTree) leafValue(y []float64, idx []int) float64 {
	if t.task == TreeClassification {
		counts := map[float64]int{}
		for _, i := range idx {
			counts[y[i]]++
		}
		best, bestN := 0.0, -1
		for v, n := range counts {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		return best
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func (n *refNode) predict(row []float64) float64 {
	for !n.leaf {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

func (n *refNode) size() int {
	if n.leaf {
		return 1
	}
	return 1 + n.left.size() + n.right.size()
}

// sameTree reports whether the flat tree equals ref node for node, with
// thresholds and leaf values compared bit for bit.
func sameTree(ref *refNode, nodes []treeNode) bool {
	if len(nodes) != ref.size() {
		return false
	}
	var same func(r *refNode, i int) bool
	same = func(r *refNode, i int) bool {
		n := nodes[i]
		if r.leaf {
			return n.left == 0 && math.Float64bits(n.value) == math.Float64bits(r.value)
		}
		return n.left != 0 && n.feature == r.feature &&
			math.Float64bits(n.threshold) == math.Float64bits(r.threshold) &&
			same(r.left, n.left) && same(r.right, n.right)
	}
	return same(ref, 0)
}

// treeTestData returns a 120x5 set for task with continuous features, so
// distinct rows never tie in x.
func treeTestData(t *testing.T, task TreeTask, seed int64) *dataset.Dataset {
	t.Helper()
	if task == TreeClassification {
		return clfData(t, seed, 120, 3)
	}
	rng := rand.New(rand.NewSource(seed))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 120, Features: 5, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPresortedTreeMatchesReference(t *testing.T) {
	configs := []struct{ maxDepth, minLeaf int }{{0, 1}, {4, 1}, {0, 5}}
	for _, task := range []TreeTask{TreeRegression, TreeClassification} {
		for seed := int64(0); seed < 40; seed++ {
			ds := treeTestData(t, task, seed)
			// A bootstrap resample: ties in x only among identical rows.
			rng := rand.New(rand.NewSource(seed))
			draw := make([]int, ds.NumSamples())
			for i := range draw {
				draw[i] = rng.Intn(len(draw))
			}
			for _, data := range []*dataset.Dataset{ds, ds.Subset(draw)} {
				for _, c := range configs {
					tree := &DecisionTree{Task: task, MaxDepth: c.maxDepth, MinLeaf: c.minLeaf}
					if err := tree.Fit(data); err != nil {
						t.Fatal(err)
					}
					ref := (&refTree{task: task, maxDepth: c.maxDepth, minLeaf: c.minLeaf}).fit(data)
					if !sameTree(ref, tree.nodes) {
						t.Fatalf("task %d seed %d config %+v: presorted tree differs from reference", task, seed, c)
					}
				}
			}
		}
	}
}

func TestPresortedForestMatchesReference(t *testing.T) {
	for _, task := range []TreeTask{TreeRegression, TreeClassification} {
		forests := 30
		if task == TreeClassification {
			forests = 10
		}
		for seed := int64(0); seed < int64(forests); seed++ {
			ds := treeTestData(t, task, seed)
			f := NewRandomForest(task, 30)
			f.Seed = seed
			f.MinLeaf = int(seed%3) + 1
			if err := f.Fit(ds); err != nil {
				t.Fatal(err)
			}
			// Replay Fit's draws: bootstrap rows, then the tree's seed.
			n := ds.NumSamples()
			rng := rand.New(rand.NewSource(seed))
			maxFeatures := int(math.Sqrt(float64(ds.NumFeatures())))
			idx := make([]int, n)
			for k, tree := range f.trees {
				for i := range idx {
					idx[i] = rng.Intn(n)
				}
				ref := &refTree{task: task, minLeaf: f.MinLeaf, maxFeatures: maxFeatures,
					rng: rand.New(rand.NewSource(rng.Int63()))}
				if !sameTree(ref.fit(ds.Subset(idx)), tree.nodes) {
					t.Fatalf("task %d forest %d tree %d differs from reference", task, seed, k)
				}
			}
		}
	}
}

func TestPresortedGradientBoostingMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ds := treeTestData(t, TreeRegression, seed)
		g := NewGradientBoosting(40)
		if err := g.Fit(ds); err != nil {
			t.Fatal(err)
		}
		n := ds.NumSamples()
		current := make([]float64, n)
		for i := range current {
			current[i] = g.base
		}
		work := ds.Clone()
		work.Y = make([]float64, n)
		for stage, tree := range g.trees {
			for i := range work.Y {
				work.Y[i] = ds.Y[i] - current[i]
			}
			ref := (&refTree{task: TreeRegression, maxDepth: g.MaxDepth, minLeaf: g.MinLeaf}).fit(work)
			if !sameTree(ref, tree.nodes) {
				t.Fatalf("seed %d stage %d differs from reference", seed, stage)
			}
			for i := range current {
				current[i] += g.LearningRate * ref.predict(ds.X.Row(i))
			}
		}
	}
}

// TestPresortedTreeTiedFeatures covers distinct rows that tie in x: the
// presort orders a tied run by row, the reference in sort.Slice's order,
// so sums may round differently but predictions must agree closely.
func TestPresortedTreeTiedFeatures(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ds := treeTestData(t, TreeRegression, seed)
		rows := make([][]float64, ds.NumSamples())
		for i := range rows {
			rows[i] = make([]float64, ds.NumFeatures())
			for j := range rows[i] {
				rows[i][j] = math.Round(ds.X.At(i, j)*4) / 4
			}
		}
		x, err := matrix.NewFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		tied, err := dataset.New(x, ds.Y)
		if err != nil {
			t.Fatal(err)
		}
		tree := NewDecisionTree(TreeRegression)
		if err := tree.Fit(tied); err != nil {
			t.Fatal(err)
		}
		ref := (&refTree{task: TreeRegression}).fit(tied)
		got, err := tree.Predict(tied)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range got {
			want := ref.predict(tied.X.Row(i))
			if math.Abs(p-want) > 1e-12*math.Abs(want) {
				t.Fatalf("seed %d row %d: presorted %v, reference %v", seed, i, p, want)
			}
		}
	}
}
