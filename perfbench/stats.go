package main

import (
	"sort"
	"time"
)

// samples is a list of timings in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no samples.
func (s samples) median() float64 {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tailPct caps the tail's percentile, so that a faster program, which
// completes more rounds, is not charged with a deeper tail.
const tailPct = 95

// tail returns the 95th-percentile sample, or, with 200 samples or
// fewer, the highest sample that still has at least ten samples above
// it; and the percentile it sits at. With fewer than 21 samples no such
// sample lies above the median, so the median is returned and labelled
// the 50th percentile.
func (s samples) tail() (value, pct float64) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	i := n - 11
	if i < (n-1)/2+1 {
		return s.median(), 50
	}
	if c := n*tailPct/100 - 1; c < i {
		i = c
	}
	return v[i], 100 * float64(i+1) / float64(n)
}

func (s samples) mean() float64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return ratio(sum, float64(len(s)))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
