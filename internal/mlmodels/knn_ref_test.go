package mlmodels

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"coda/internal/dataset"
	"coda/internal/matrix"
)

// refKNNPredict is the sort-per-query KNN that the bounded top-k selection
// replaced, kept as the reference Predict is checked against. sortFn is
// sort.Slice (the old code, whose order among equal distances is pdqsort's)
// or sort.SliceStable (the tie rule Predict defines: lower training index
// first). tied reports whether any query saw two equal distances.
func refKNNPredict(task KNNTask, k int, train, test *dataset.Dataset, sortFn func(any, func(a, b int) bool)) (out []float64, tied bool) {
	trainX := make([][]float64, train.NumSamples())
	for i := range trainX {
		trainX[i] = train.X.RowCopy(i)
	}
	if k > len(trainX) {
		k = len(trainX)
	}
	out = make([]float64, test.NumSamples())
	type nb struct {
		dist float64
		y    float64
	}
	nbs := make([]nb, len(trainX))
	for i := range out {
		row := test.X.Row(i)
		for t, tr := range trainX {
			d := 0.0
			for j, v := range row {
				diff := v - tr[j]
				d += diff * diff
			}
			nbs[t] = nb{d, train.Y[t]}
		}
		sortFn(nbs, func(a, b int) bool { return nbs[a].dist < nbs[b].dist })
		for t := 1; t < len(nbs); t++ {
			tied = tied || nbs[t].dist == nbs[t-1].dist
		}
		switch task {
		case KNNClassification:
			votes := map[float64]int{}
			for _, n := range nbs[:k] {
				votes[n.y]++
			}
			best, bestN := 0.0, -1
			for v, c := range votes {
				if c > bestN || (c == bestN && v < best) {
					best, bestN = v, c
				}
			}
			out[i] = best
		default:
			s := 0.0
			for _, n := range nbs[:k] {
				s += n.y
			}
			out[i] = s / float64(k)
		}
	}
	return out, tied
}

// knnRefData builds train and test sets. With ties, features are small
// integers and every training row appears twice with different targets, so
// distances tie both between duplicates and between distinct rows; without
// ties they are continuous. Classification targets are three labels.
func knnRefData(t *testing.T, seed int64, ties bool, task KNNTask) (train, test *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nTrain, nTest, d = 40, 25, 3
	feature := func() float64 {
		if ties {
			return float64(rng.Intn(3))
		}
		return rng.NormFloat64()
	}
	target := func() float64 {
		if task == KNNClassification {
			return float64(rng.Intn(3))
		}
		return rng.NormFloat64() * 10
	}
	build := func(rows [][]float64) *dataset.Dataset {
		x, err := matrix.NewFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, len(rows))
		for i := range y {
			y[i] = target()
		}
		ds, err := dataset.New(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	var trainRows, testRows [][]float64
	for len(trainRows) < nTrain {
		row := make([]float64, d)
		for j := range row {
			row[j] = feature()
		}
		trainRows = append(trainRows, row)
		if ties {
			trainRows = append(trainRows, append([]float64(nil), row...))
		}
	}
	for i := 0; i < nTest; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = feature()
		}
		testRows = append(testRows, row)
	}
	return build(trainRows), build(testRows)
}

func knnRefKs(n int) []int { return []int{1, 3, 5, n, n + 3} }

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func knnPredict(t *testing.T, task KNNTask, k int, train, test *dataset.Dataset) []float64 {
	t.Helper()
	m := NewKNN(task, k)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// With tied distances Predict equals the stable-sort reference bit for bit.
// The data must exercise the tie rule: somewhere the old sort.Slice order
// gives a different answer.
func TestKNNMatchesStableReferenceWithTies(t *testing.T) {
	unstable := false
	for _, task := range []KNNTask{KNNRegression, KNNClassification} {
		for seed := int64(1); seed <= 5; seed++ {
			train, test := knnRefData(t, seed, true, task)
			for _, k := range knnRefKs(train.NumSamples()) {
				want, tied := refKNNPredict(task, k, train, test, sort.SliceStable)
				if !tied {
					t.Fatalf("task %d seed %d: tie data produced no tied distances", task, seed)
				}
				if i := sameBits(knnPredict(t, task, k, train, test), want); i >= 0 {
					t.Fatalf("task %d seed %d k=%d: row %d differs from the stable reference", task, seed, k, i)
				}
				old, _ := refKNNPredict(task, k, train, test, sort.Slice)
				unstable = unstable || sameBits(old, want) >= 0
			}
		}
	}
	if !unstable {
		t.Fatal("tie data never separates sort.Slice from the stable order")
	}
}

// Without ties Predict equals both the old sort.Slice path and the stable
// reference bit for bit.
func TestKNNMatchesSortReferenceWithoutTies(t *testing.T) {
	for _, task := range []KNNTask{KNNRegression, KNNClassification} {
		for seed := int64(1); seed <= 5; seed++ {
			train, test := knnRefData(t, seed, false, task)
			for _, k := range knnRefKs(train.NumSamples()) {
				got := knnPredict(t, task, k, train, test)
				for _, ref := range []struct {
					name string
					fn   func(any, func(a, b int) bool)
				}{{"sort.Slice", sort.Slice}, {"sort.SliceStable", sort.SliceStable}} {
					want, tied := refKNNPredict(task, k, train, test, ref.fn)
					if tied {
						t.Fatalf("task %d seed %d: continuous data produced tied distances", task, seed)
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("task %d seed %d k=%d: row %d differs from the %s reference", task, seed, k, i, ref.name)
					}
				}
			}
		}
	}
}
