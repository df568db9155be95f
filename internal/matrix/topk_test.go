package matrix

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TopK returns the first k of a stable sort by distance, with NaN ranked
// as +Inf, on streams full of ties; k < 1 selects nothing.
func TestTopKIsStableSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var top TopK
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(30)
		dist := make([]float64, n)
		for i := range dist {
			switch rng.Intn(8) {
			case 0:
				dist[i] = math.NaN()
			case 1:
				dist[i] = math.Inf(1)
			default:
				dist[i] = float64(rng.Intn(5))
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		key := func(i int) float64 {
			if math.IsNaN(dist[i]) {
				return math.Inf(1)
			}
			return dist[i]
		}
		sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
		k := rng.Intn(n+3) - 1
		top.Reset(k)
		for i, d := range dist {
			top.Push(d, i)
		}
		if want := order[:min(max(k, 0), n)]; !slices.Equal(top.Indices(), want) {
			t.Fatalf("trial %d k=%d: got %v, want %v (dist %v)", trial, k, top.Indices(), want, dist)
		}
	}
}

// Reset reuses the buffer once it is large enough.
func TestTopKResetDoesNotAllocate(t *testing.T) {
	var top TopK
	top.Reset(5)
	if n := testing.AllocsPerRun(100, func() {
		top.Reset(5)
		for i := 0; i < 50; i++ {
			top.Push(float64(50-i), i)
		}
	}); n != 0 {
		t.Fatalf("Reset+Push allocated %v times per run", n)
	}
}
