package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Errorf("Min = %v, want -1", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v, want 7", Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty slice should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %v, want 3", Median(xs))
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(xs, 101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch not reported")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("too-few samples not reported")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance not reported")
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000) / 7
		}
		for i := range xs {
			xs[i] = next()
			ys[i] = next()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate sample; fine
		}
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.Count != 3 || !almostEqual(s.Mean, 2) || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestEWMAFirstSampleSetsValue(t *testing.T) {
	e := NewEWMA(0.3)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA should be zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Errorf("first sample: Value = %v, want 10", e.Value())
	}
	e.Observe(20)
	if want := 0.3*20 + 0.7*10; !almostEqual(e.Value(), want) {
		t.Errorf("second sample: Value = %v, want %v", e.Value(), want)
	}
	if e.Count() != 2 {
		t.Errorf("Count = %d, want 2", e.Count())
	}
}

func TestEWMAAlphaValidation(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
	NewEWMA(1) // boundary is valid
}

func TestEWMAConcurrentObserve(t *testing.T) {
	e := NewEWMA(0.5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				e.Observe(5)
			}
		}()
	}
	wg.Wait()
	if e.Count() != 800 {
		t.Errorf("Count = %d, want 800", e.Count())
	}
	if !almostEqual(e.Value(), 5) {
		t.Errorf("Value = %v, want 5", e.Value())
	}
}
