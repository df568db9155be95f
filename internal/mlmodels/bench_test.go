package mlmodels

import (
	"math/rand"
	"slices"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
)

// benchData is a 300x6 regression set, the shape the cooperative-search
// benchmark's regression workload searches; classify bins its targets
// into three equal-count classes.
func benchData(b *testing.B, classify bool) *dataset.Dataset {
	b.Helper()
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 300, Features: 6, Informative: 4, Noise: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	if classify {
		sorted := slices.Clone(ds.Y)
		slices.Sort(sorted)
		lo, hi := sorted[len(sorted)/3], sorted[2*len(sorted)/3]
		for i, y := range ds.Y {
			switch {
			case y < lo:
				ds.Y[i] = 0
			case y < hi:
				ds.Y[i] = 1
			default:
				ds.Y[i] = 2
			}
		}
	}
	return ds
}

func benchFit(b *testing.B, ds *dataset.Dataset, mk func() core.Estimator) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mk().Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeFit(b *testing.B) {
	benchFit(b, benchData(b, false), func() core.Estimator { return NewDecisionTree(TreeRegression) })
}

func BenchmarkForestFit(b *testing.B) {
	for _, c := range []struct {
		name string
		task TreeTask
	}{{"regression", TreeRegression}, {"classification", TreeClassification}} {
		b.Run(c.name, func(b *testing.B) {
			benchFit(b, benchData(b, c.task == TreeClassification), func() core.Estimator { return NewRandomForest(c.task, 30) })
		})
	}
}

func BenchmarkGBMFit(b *testing.B) {
	benchFit(b, benchData(b, false), func() core.Estimator { return NewGradientBoosting(100) })
}

// BenchmarkKNNPredict times one cross-validation fold of the regression
// workload's KNN: fit on 240 rows, predict the other 60, k = 5.
func BenchmarkKNNPredict(b *testing.B) {
	ds := benchData(b, false)
	idx := make([]int, ds.NumSamples())
	for i := range idx {
		idx[i] = i
	}
	train, test := ds.Subset(idx[:240]), ds.Subset(idx[240:])
	m := NewKNN(KNNRegression, 5)
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(test); err != nil {
			b.Fatal(err)
		}
	}
}
