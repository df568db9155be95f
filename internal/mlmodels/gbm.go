package mlmodels

import (
	"fmt"

	"coda/internal/core"
	"coda/internal/dataset"
)

// GradientBoosting is a least-squares gradient-boosted ensemble of shallow
// CART regression trees (one of the training techniques Section III lists).
// Each stage fits a depth-limited tree to the current residuals and adds a
// shrunken copy of its predictions.
type GradientBoosting struct {
	NTrees       int     // boosting stages (default 100)
	LearningRate float64 // shrinkage (default 0.1)
	MaxDepth     int     // per-tree depth (default 3)
	MinLeaf      int     // per-tree leaf size (default 1)

	trees []*DecisionTree
	base  float64 // initial prediction (target mean)
}

// NewGradientBoosting returns an unfitted boosted regressor.
func NewGradientBoosting(nTrees int) *GradientBoosting {
	return &GradientBoosting{NTrees: nTrees, LearningRate: 0.1, MaxDepth: 3, MinLeaf: 1}
}

// Name implements core.Component.
func (g *GradientBoosting) Name() string { return "gradientboosting" }

// SetParam implements core.Component; "n_trees", "lr", "max_depth" and
// "min_leaf" are supported.
func (g *GradientBoosting) SetParam(key string, v float64) error {
	switch key {
	case "n_trees":
		g.NTrees = int(v)
	case "lr":
		g.LearningRate = v
	case "max_depth":
		g.MaxDepth = int(v)
	case "min_leaf":
		g.MinLeaf = int(v)
	default:
		return errUnknownParam(g.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (g *GradientBoosting) Params() map[string]float64 {
	return map[string]float64{
		"n_trees": float64(g.NTrees), "lr": g.LearningRate,
		"max_depth": float64(g.MaxDepth), "min_leaf": float64(g.MinLeaf),
	}
}

// Clone implements core.Estimator.
func (g *GradientBoosting) Clone() core.Estimator {
	return &GradientBoosting{NTrees: g.NTrees, LearningRate: g.LearningRate, MaxDepth: g.MaxDepth, MinLeaf: g.MinLeaf}
}

// Fit boosts on squared-error residuals.
func (g *GradientBoosting) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", g.Name())
	}
	n := ds.NumSamples()
	if n == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", g.Name())
	}
	if g.NTrees < 1 {
		g.NTrees = 100
	}
	if g.LearningRate <= 0 {
		g.LearningRate = 0.1
	}
	if g.MaxDepth < 1 {
		g.MaxDepth = 3
	}
	g.base = 0
	for _, y := range ds.Y {
		g.base += y
	}
	g.base /= float64(n)

	current := make([]float64, n)
	for i := range current {
		current[i] = g.base
	}
	// The features are presorted once; each stage only changes the
	// residual targets the builder reads at load.
	residual := make([]float64, n)
	b := newCartBuilder(presort(ds.X), residual, TreeRegression)
	rows := identityRows(n)
	g.trees = make([]*DecisionTree, 0, g.NTrees)
	for stage := 0; stage < g.NTrees; stage++ {
		for i := range residual {
			residual[i] = ds.Y[i] - current[i]
		}
		tree := &DecisionTree{Task: TreeRegression, MaxDepth: g.MaxDepth, MinLeaf: g.MinLeaf}
		b.load(rows)
		tree.nodes = b.grow(tree, nil)
		preds, err := tree.Predict(ds)
		if err != nil {
			return fmt.Errorf("mlmodels: %s stage %d predict: %w", g.Name(), stage, err)
		}
		for i, p := range preds {
			current[i] += g.LearningRate * p
		}
		g.trees = append(g.trees, tree)
	}
	return nil
}

// Predict sums the base value and shrunken stage outputs.
func (g *GradientBoosting) Predict(ds *dataset.Dataset) ([]float64, error) {
	if g.trees == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, g.Name())
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		out[i] = g.base
	}
	for _, tree := range g.trees {
		preds, err := tree.Predict(ds)
		if err != nil {
			return nil, fmt.Errorf("mlmodels: %s predict: %w", g.Name(), err)
		}
		for i, p := range preds {
			out[i] += g.LearningRate * p
		}
	}
	return out, nil
}
