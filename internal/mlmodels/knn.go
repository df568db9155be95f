package mlmodels

import (
	"fmt"
	"slices"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// KNNTask selects regression (neighbour mean) or classification (majority
// vote) for KNN.
type KNNTask int

// KNN tasks.
const (
	KNNRegression KNNTask = iota + 1
	KNNClassification
)

// KNN is a k-nearest-neighbours model with Euclidean distance. Predict
// selects each row's K nearest training rows with a bounded top-k
// (matrix.TopK) instead of sorting every distance; among equal distances
// the lower training index wins.
type KNN struct {
	Task KNNTask
	K    int // neighbours (default 5)

	nFeat  int
	trainX []float64 // row-major, len(trainY) x nFeat
	trainY []float64
}

// NewKNN returns an unfitted KNN with k neighbours.
func NewKNN(task KNNTask, k int) *KNN { return &KNN{Task: task, K: k} }

// Name implements core.Component.
func (m *KNN) Name() string { return "knn" }

// SetParam implements core.Component; "k" is supported.
func (m *KNN) SetParam(key string, v float64) error {
	if key == "k" {
		m.K = int(v)
		return nil
	}
	return errUnknownParam(m.Name(), key)
}

// Params implements core.Component.
func (m *KNN) Params() map[string]float64 { return map[string]float64{"k": float64(m.K)} }

// Clone implements core.Estimator.
func (m *KNN) Clone() core.Estimator { return &KNN{Task: m.Task, K: m.K} }

// Fit stores the training data.
func (m *KNN) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", m.Name())
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", m.Name())
	}
	if m.K < 1 {
		m.K = 5
	}
	m.nFeat = ds.NumFeatures()
	m.trainX = slices.Clone(ds.X.Data())
	m.trainY = slices.Clone(ds.Y)
	return nil
}

// Predict aggregates the K nearest training samples per row: the mean of
// their targets summed nearest first, or the majority vote (ties to the
// smaller label).
func (m *KNN) Predict(ds *dataset.Dataset) ([]float64, error) {
	if m.trainY == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, m.Name())
	}
	if ds.NumFeatures() != m.nFeat {
		return nil, fmt.Errorf("mlmodels: %s fitted with %d features, got %d", m.Name(), m.nFeat, ds.NumFeatures())
	}
	d := m.nFeat
	k := min(m.K, len(m.trainY))
	out := make([]float64, ds.NumSamples())
	var top matrix.TopK
	var votes map[float64]int
	if m.Task == KNNClassification {
		votes = map[float64]int{}
	}
	for i := range out {
		row := ds.X.Row(i)
		top.Reset(k)
		for t := range m.trainY {
			tr := m.trainX[t*d : t*d+d]
			dist := 0.0
			for j, v := range row {
				diff := v - tr[j]
				dist += diff * diff
			}
			top.Push(dist, t)
		}
		switch m.Task {
		case KNNClassification:
			clear(votes)
			for _, t := range top.Indices() {
				votes[m.trainY[t]]++
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
			for _, t := range top.Indices() {
				s += m.trainY[t]
			}
			out[i] = s / float64(k)
		}
	}
	return out, nil
}
