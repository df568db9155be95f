package preprocess

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"coda/internal/dataset"
)

// refKNNImpute is the sort-per-cell KNN imputation that the bounded top-k
// selection replaced, kept as the reference Transform is checked against.
// It fills every NaN of test from train. sortFn is sort.Slice (the old
// code) or sort.SliceStable (the tie rule Transform defines: lower training
// row first). tied reports whether any cell saw two equal distances.
func refKNNImpute(k int, train, test *dataset.Dataset, sortFn func(any, func(a, b int) bool)) (out []float64, tied bool) {
	rows := train.X.Rows()
	trainX := make([][]float64, rows)
	trainOK := make([][]bool, rows)
	for i := range trainX {
		trainX[i] = train.X.RowCopy(i)
		trainOK[i] = make([]bool, train.X.Cols())
		for j, v := range trainX[i] {
			trainOK[i][j] = !math.IsNaN(v)
		}
	}
	fill := func(row []float64, j int) float64 {
		type cand struct {
			dist float64
			val  float64
		}
		var cands []cand
		for r, tr := range trainX {
			if !trainOK[r][j] {
				continue
			}
			d, shared := 0.0, 0
			for c, v := range row {
				if c == j || math.IsNaN(v) || !trainOK[r][c] {
					continue
				}
				diff := v - tr[c]
				d += diff * diff
				shared++
			}
			if shared == 0 {
				d = math.MaxFloat64 / 2
			}
			cands = append(cands, cand{d, tr[j]})
		}
		if len(cands) == 0 {
			return 0
		}
		sortFn(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
		for c := 1; c < len(cands); c++ {
			tied = tied || cands[c].dist == cands[c-1].dist
		}
		kk := min(k, len(cands))
		s := 0.0
		for _, c := range cands[:kk] {
			s += c.val
		}
		return s / float64(kk)
	}
	x := test.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j, v := range row {
			if math.IsNaN(v) {
				row[j] = fill(row, j)
			}
		}
	}
	return x.Data(), tied
}

// imputeRefData returns a 30x4 set with NaN holes. With ties, values are
// small integers, every row appears twice, and holes are dense enough that
// some rows share no observed column (distance MaxFloat64/2); without
// ties values are continuous and each row has at most one hole.
func imputeRefData(t *testing.T, seed int64, ties bool) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, d = 30, 4
	var rows [][]float64
	for len(rows) < n {
		row := make([]float64, d)
		for j := range row {
			if ties {
				row[j] = float64(rng.Intn(3))
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		if ties {
			for j := range row {
				if rng.Float64() < 0.35 {
					row[j] = math.NaN()
				}
			}
			rows = append(rows, row, append([]float64(nil), row...))
			continue
		}
		if rng.Float64() < 0.5 {
			row[rng.Intn(d)] = math.NaN()
		}
		rows = append(rows, row)
	}
	return ds(t, rows, nil)
}

func imputeKNN(t *testing.T, k int, data *dataset.Dataset) []float64 {
	t.Helper()
	im := NewImputer(ImputeKNN)
	im.K = k
	if err := im.Fit(data); err != nil {
		t.Fatal(err)
	}
	out, err := im.Transform(data)
	if err != nil {
		t.Fatal(err)
	}
	return out.X.Data()
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// With tied distances (duplicated rows, rows sharing no observed column)
// Transform equals the stable-sort reference bit for bit, and the data
// must separate the stable order from the old sort.Slice order somewhere.
func TestImputerKNNMatchesStableReferenceWithTies(t *testing.T) {
	unstable := false
	for seed := int64(1); seed <= 5; seed++ {
		data := imputeRefData(t, seed, true)
		for _, k := range []int{1, 3, 5, data.NumSamples(), data.NumSamples() + 3} {
			want, tied := refKNNImpute(k, data, data, sort.SliceStable)
			if !tied {
				t.Fatalf("seed %d: tie data produced no tied distances", seed)
			}
			if i := firstBitDiff(imputeKNN(t, k, data), want); i >= 0 {
				t.Fatalf("seed %d k=%d: cell %d differs from the stable reference", seed, k, i)
			}
			old, _ := refKNNImpute(k, data, data, sort.Slice)
			unstable = unstable || firstBitDiff(old, want) >= 0
		}
	}
	if !unstable {
		t.Fatal("tie data never separates sort.Slice from the stable order")
	}
}

// Without ties Transform equals the old sort.Slice path and the stable
// reference bit for bit.
func TestImputerKNNMatchesSortReferenceWithoutTies(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		data := imputeRefData(t, seed, false)
		for _, k := range []int{1, 3, 5, data.NumSamples(), data.NumSamples() + 3} {
			got := imputeKNN(t, k, data)
			for name, fn := range map[string]func(any, func(a, b int) bool){"sort.Slice": sort.Slice, "sort.SliceStable": sort.SliceStable} {
				want, tied := refKNNImpute(k, data, data, fn)
				if tied {
					t.Fatalf("seed %d: continuous data produced tied distances", seed)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("seed %d k=%d: cell %d differs from the %s reference", seed, k, i, name)
				}
			}
		}
	}
}
