package mlmodels

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/core"
	"coda/internal/dataset"
)

// RandomForest is a bagged ensemble of feature-subsampled CART trees.
// Regression forests average tree outputs; classification forests take a
// majority vote.
type RandomForest struct {
	Task     TreeTask
	NTrees   int   // number of trees (default 50)
	MaxDepth int   // per-tree depth cap (0 = unbounded)
	MinLeaf  int   // per-tree minimum leaf size (default 1)
	Seed     int64 // rng seed for bootstrap and feature subsampling

	trees []*DecisionTree
}

// NewRandomForest returns an unfitted forest with nTrees members.
func NewRandomForest(task TreeTask, nTrees int) *RandomForest {
	return &RandomForest{Task: task, NTrees: nTrees, MinLeaf: 1}
}

// Name implements core.Component.
func (f *RandomForest) Name() string { return "randomforest" }

// SetParam implements core.Component; "n_trees", "max_depth", "min_leaf"
// and "seed" are supported.
func (f *RandomForest) SetParam(key string, v float64) error {
	switch key {
	case "n_trees":
		f.NTrees = int(v)
	case "max_depth":
		f.MaxDepth = int(v)
	case "min_leaf":
		f.MinLeaf = int(v)
	case "seed":
		f.Seed = int64(v)
	default:
		return errUnknownParam(f.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (f *RandomForest) Params() map[string]float64 {
	return map[string]float64{
		"n_trees":   float64(f.NTrees),
		"max_depth": float64(f.MaxDepth),
		"min_leaf":  float64(f.MinLeaf),
		"seed":      float64(f.Seed),
	}
}

// Clone implements core.Estimator.
func (f *RandomForest) Clone() core.Estimator {
	return &RandomForest{Task: f.Task, NTrees: f.NTrees, MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf, Seed: f.Seed}
}

// Fit grows NTrees trees on bootstrap resamples with sqrt(p) feature
// subsampling. The features are presorted once for the whole forest; each
// bootstrap derives its orders from that presort by counting.
func (f *RandomForest) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", f.Name())
	}
	if f.NTrees < 1 {
		f.NTrees = 50
	}
	n := ds.NumSamples()
	if n == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", f.Name())
	}
	if f.Task != TreeRegression && f.Task != TreeClassification {
		return fmt.Errorf("mlmodels: %s unknown task %d", f.Name(), f.Task)
	}
	rng := rand.New(rand.NewSource(f.Seed))
	maxFeatures := int(math.Sqrt(float64(ds.NumFeatures())))
	if maxFeatures < 1 {
		maxFeatures = 1
	}
	b := newCartBuilder(presort(ds.X), ds.Y, f.Task)
	treeRng := rand.New(rand.NewSource(0))
	f.trees = make([]*DecisionTree, f.NTrees)
	draw := make([]int, n)
	for t := 0; t < f.NTrees; t++ {
		for i := range draw {
			draw[i] = rng.Intn(n)
		}
		tree := &DecisionTree{
			Task:        f.Task,
			MaxDepth:    f.MaxDepth,
			MinLeaf:     f.MinLeaf,
			MaxFeatures: maxFeatures,
		}
		// Reseeding equals rand.New(rand.NewSource(seed)) without the
		// per-tree 5 KB source.
		treeRng.Seed(rng.Int63())
		b.load(draw)
		tree.nodes = b.grow(tree, treeRng)
		f.trees[t] = tree
	}
	return nil
}

// Predict aggregates the member trees.
func (f *RandomForest) Predict(ds *dataset.Dataset) ([]float64, error) {
	if f.trees == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, f.Name())
	}
	n := ds.NumSamples()
	switch f.Task {
	case TreeClassification:
		votes := make([]map[float64]int, n)
		for i := range votes {
			votes[i] = map[float64]int{}
		}
		for _, tree := range f.trees {
			preds, err := tree.Predict(ds)
			if err != nil {
				return nil, fmt.Errorf("mlmodels: %s member predict: %w", f.Name(), err)
			}
			for i, p := range preds {
				votes[i][p]++
			}
		}
		out := make([]float64, n)
		for i, vs := range votes {
			best, bestN := 0.0, -1
			for v, c := range vs {
				if c > bestN || (c == bestN && v < best) {
					best, bestN = v, c
				}
			}
			out[i] = best
		}
		return out, nil
	default:
		out := make([]float64, n)
		for _, tree := range f.trees {
			preds, err := tree.Predict(ds)
			if err != nil {
				return nil, fmt.Errorf("mlmodels: %s member predict: %w", f.Name(), err)
			}
			for i, p := range preds {
				out[i] += p
			}
		}
		for i := range out {
			out[i] /= float64(len(f.trees))
		}
		return out, nil
	}
}
