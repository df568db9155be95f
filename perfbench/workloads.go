package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/nn"
	"coda/internal/preprocess"
	"coda/internal/sim"
	"coda/internal/tsgraph"
)

// workload is one set of inputs the benchmark runs. Each is described,
// with the reason it was chosen, in BENCHMARK.json.
type workload struct {
	// warmup is how many rounds run before set-up is timed; they fill the
	// durable DARR and store that the timed restart replays, with the
	// same amount of data however fast the program is.
	warmup int
	// heapRounds bounds the timed rounds peak_heap_mb is taken over, so
	// that a faster program, which completes more rounds and so stores
	// more DARR records in a run, is not charged for the extra records.
	heapRounds int
	// warmRepeats is how many times bob repeats each cold search warm in a
	// sequential workload. A warm search costs milliseconds against a cold
	// search's second, so repeats add samples without changing the
	// round's make-up.
	warmRepeats int
	// concurrent workloads run two analysts one round apart, each search
	// on one worker; the others run one search at a time on every CPU.
	concurrent bool
	graph      func(seed int64) (*core.Graph, error)
	options    func(ds *dataset.Dataset, seed int64) core.SearchOptions
	// data generates round r's dataset (sequential workloads only).
	data func(seed int64, r int) (*dataset.Dataset, error)
}

var rmse = func() metrics.Scorer {
	s, err := metrics.ScorerByName("rmse")
	if err != nil {
		panic(err)
	}
	return s
}()

// roundRNG derives round r's data generator from the workload seed.
func roundRNG(seed int64, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
}

var workloads = map[string]workload{
	"regression-teg": {
		warmup:      2,
		heapRounds:  20,
		warmRepeats: 10,
		graph: func(int64) (*core.Graph, error) {
			// coda-client's regression TEG: 4 scalers x 3 selectors x 4
			// models = 48 units.
			g := core.NewGraph()
			g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(),
				preprocess.NewStandardScaler(), preprocess.NewNoOp())
			g.AddFeatureSelectors(
				[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
				[]core.Transformer{preprocess.NewSelectKBest(3)},
				[]core.Transformer{preprocess.NewNoOp()})
			g.AddRegressionModels(mlmodels.NewRandomForest(mlmodels.TreeRegression, 30),
				mlmodels.NewKNN(mlmodels.KNNRegression, 5),
				mlmodels.NewDecisionTree(mlmodels.TreeRegression),
				mlmodels.NewLinearRegression())
			return g, g.Finalize()
		},
		options: func(_ *dataset.Dataset, seed int64) core.SearchOptions {
			return core.SearchOptions{Splitter: crossval.KFold{K: 5, Shuffle: true}, Scorer: rmse, Seed: seed}
		},
		data: func(seed int64, r int) (*dataset.Dataset, error) {
			ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 300, Features: 6, Informative: 3, Noise: 3}, roundRNG(seed, r))
			return ds, err
		},
	},
	"timeseries-teg": {
		warmup:      2,
		heapRounds:  10,
		warmRepeats: 10,
		graph: func(seed int64) (*core.Graph, error) {
			// coda-client's slim time-series graph: 24 units.
			return tsgraph.New(tsgraph.Config{History: 8, Epochs: 20, Seed: seed, Precision: nn.F64, Slim: true})
		},
		options: func(ds *dataset.Dataset, seed int64) core.SearchOptions {
			n := ds.NumSamples()
			return core.SearchOptions{
				Splitter: crossval.SlidingSplit{K: 5, TrainSize: n / 2, TestSize: n / 6, Buffer: 8},
				Scorer:   rmse, Seed: seed,
			}
		},
		data: func(seed int64, r int) (*dataset.Dataset, error) {
			// A random walk, on which the statistical models win every
			// round. On AR data an LSTM wins some rounds and AR others,
			// and since a search ends by refitting its winner, cold and
			// warm times would flip between two modes from round to round.
			return sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 2, Regime: sim.RegimeRandomWalk}, roundRNG(seed, r))
		},
	},
	"update-reanalytics": {
		warmup:     30,
		heapRounds: 150,
		concurrent: true,
		graph: func(int64) (*core.Graph, error) {
			// 3 scalers x 2 selectors x ridge, searched over a 40-value
			// alpha grid: 240 cheap units.
			g := core.NewGraph()
			g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler())
			g.AddFeatureSelectors(
				[]core.Transformer{preprocess.NewSelectKBest(3)},
				[]core.Transformer{preprocess.NewNoOp()})
			g.AddRegressionModels(mlmodels.NewRidge(1))
			return g, g.Finalize()
		},
		options: func(_ *dataset.Dataset, seed int64) core.SearchOptions {
			alphas := make([]float64, 40)
			for i := range alphas {
				alphas[i] = math.Pow(10, -3+5*float64(i)/float64(len(alphas)-1))
			}
			return core.SearchOptions{
				Splitter:    crossval.KFold{K: 3, Shuffle: true},
				Scorer:      rmse,
				Seed:        seed,
				Parallelism: 1,
				ParamGrid:   map[string][]float64{"ridge__alpha": alphas},
			}
		},
	},
}

// ownerData is the data owner's regression set in update-reanalytics: a
// 400x6 window over an endless stream from one linear model, slid
// forward a few rows per version.
type ownerData struct {
	rng  *rand.Rand
	coef []float64
	ds   *dataset.Dataset
}

const (
	ownerRows  = 400
	ownerSlide = 4
	ownerNoise = 3.0
	objectKey  = "sensor-data"
)

func newOwnerData(seed int64) (*ownerData, error) {
	rng := rand.New(rand.NewSource(seed))
	ds, coef, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: ownerRows, Features: 6, Informative: 3, Noise: ownerNoise}, rng)
	if err != nil {
		return nil, err
	}
	return &ownerData{rng: rng, coef: coef, ds: ds}, nil
}

// slide drops the oldest ownerSlide rows and appends as many new ones.
func (o *ownerData) slide() error {
	n, p := o.ds.NumSamples(), o.ds.NumFeatures()
	rows := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	for i := ownerSlide; i < n; i++ {
		rows = append(rows, append([]float64(nil), o.ds.X.Row(i)...))
		y = append(y, o.ds.Y[i])
	}
	for i := 0; i < ownerSlide; i++ {
		row := make([]float64, p)
		s := 0.0
		for j := range row {
			row[j] = o.rng.NormFloat64()
			s += row[j] * o.coef[j]
		}
		rows = append(rows, row)
		y = append(y, s+ownerNoise*o.rng.NormFloat64())
	}
	x, err := matrix.NewFromRows(rows)
	if err != nil {
		return err
	}
	ds, err := dataset.New(x, y)
	if err != nil {
		return err
	}
	ds.ColNames, ds.TargetName = o.ds.ColNames, o.ds.TargetName
	o.ds = ds
	return nil
}

func (o *ownerData) csv() ([]byte, error) {
	var buf bytes.Buffer
	if err := o.ds.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("writing owner CSV: %w", err)
	}
	return buf.Bytes(), nil
}
