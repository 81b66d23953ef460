package binpack

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	one := []int{1}
	tests := []struct {
		name     string
		demands  [][]float64
		counts   []int
		capacity []float64
		maxBins  int
	}{
		{"empty capacity", [][]float64{{0.5}}, one, nil, 1},
		{"zero capacity", [][]float64{{0.5}}, one, []float64{0}, 1},
		{"NaN capacity", [][]float64{{0.5}}, one, []float64{math.NaN()}, 1},
		{"oversized item", [][]float64{{2}}, one, []float64{1}, 1},
		{"negative demand", [][]float64{{-0.1}}, one, []float64{1}, 1},
		{"NaN demand", [][]float64{{math.NaN()}}, one, []float64{1}, 1},
		{"dim mismatch", [][]float64{{0.1, 0.1}}, one, []float64{1}, 1},
		{"counts length", [][]float64{{0.1}}, []int{1, 1}, []float64{1}, 1},
		{"negative budget", [][]float64{{0.1}}, one, []float64{1}, -1},
	}
	for _, tt := range tests {
		if _, _, err := FirstFitBounded(tt.demands, tt.counts, tt.capacity, tt.maxBins); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
	// A kind with nothing to pack is not looked at, as when every item
	// was its own argument: the controller's catalog holds container
	// sizes some machine types cannot host.
	bins, unplaced, err := FirstFitBounded([][]float64{{2}, {0.5}}, []int{0, 1}, []float64{1}, 1)
	if err != nil || len(bins) != 1 || unplaced != nil {
		t.Errorf("oversized kind with count 0: bins=%d unplaced=%v err=%v", len(bins), unplaced, err)
	}
}

func TestFirstFitExact(t *testing.T) {
	// FF of 0.6, 0.6, 0.4, 0.4: [0.6, 0.4], [0.6, 0.4] -> 2 bins.
	bins, unplaced, err := FirstFitBounded([][]float64{{0.6}, {0.4}}, []int{2, 2}, []float64{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Bin{{Counts: []int{1, 1}, Used: []float64{1}}, {Counts: []int{1, 1}, Used: []float64{1}}}
	if !reflect.DeepEqual(bins, want) || unplaced != nil {
		t.Errorf("bins = %v unplaced = %v, want %v and none", bins, unplaced, want)
	}
}

func TestFirstFitBounded(t *testing.T) {
	demands, counts := [][]float64{{0.9}, {0.05}}, []int{3, 1}
	bins, unplaced, err := FirstFitBounded(demands, counts, []float64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The third 0.9 finds both bins taken; the 0.05 still fits the first.
	if len(bins) != 2 || !reflect.DeepEqual(unplaced, []int{1, 0}) || bins[0].Counts[1] != 1 {
		t.Errorf("bins=%v unplaced=%v, want 2 bins and one item of kind 0 left", bins, unplaced)
	}
	// Zero budget: everything unplaced.
	bins, unplaced, err = FirstFitBounded(demands, counts, []float64{1}, 0)
	if err != nil || len(bins) != 0 || !reflect.DeepEqual(unplaced, counts) {
		t.Errorf("zero budget: bins=%d unplaced=%v err=%v", len(bins), unplaced, err)
	}
}

// firstFitItems is First-Fit one item at a time, every bin tried from the
// first for every item: the form FirstFitBounded had before it took
// counts, kept as the oracle for the count form.
func firstFitItems(demands [][]float64, counts []int, capacity []float64, maxBins int) (bins []Bin, unplaced []int) {
	for k, dem := range demands {
	item:
		for i := 0; i < counts[k]; i++ {
			for b := range bins {
				if fits(bins[b].Used, dem, capacity) {
					bins[b].Counts[k]++
					for d, v := range dem {
						bins[b].Used[d] += v
					}
					continue item
				}
			}
			if len(bins) == maxBins {
				if unplaced == nil {
					unplaced = make([]int, len(demands))
				}
				unplaced[k]++
				continue
			}
			b := Bin{Counts: make([]int, len(demands)), Used: append([]float64(nil), dem...)}
			b.Counts[k] = 1
			bins = append(bins, b)
		}
	}
	return bins, unplaced
}

// randomKinds draws 1–3 dimensions, unit capacity, 1–12 kinds with
// demands in [0, 0.9) and counts in [-1, 8] (the controller's floor of a
// slightly negative LP value is -1: nothing to pack).
func randomKinds(r *rand.Rand) (demands [][]float64, counts []int, capacity []float64) {
	capacity = make([]float64, 1+r.Intn(3))
	for d := range capacity {
		capacity[d] = 1
	}
	demands = make([][]float64, 1+r.Intn(12))
	counts = make([]int, len(demands))
	for k := range demands {
		demands[k] = make([]float64, len(capacity))
		for d := range demands[k] {
			demands[k][d] = r.Float64() * 0.9
		}
		counts[k] = r.Intn(10) - 1
	}
	return demands, counts, capacity
}

// Property: the count form makes the item-at-a-time decisions, bit for bit.
func TestFirstFitMatchesItemAtATime(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		demands, counts, capacity := randomKinds(r)
		maxBins := r.Intn(30)
		bins, unplaced, err := FirstFitBounded(demands, counts, capacity, maxBins)
		if err != nil {
			return false
		}
		want, wantUnplaced := firstFitItems(demands, counts, capacity, maxBins)
		if len(bins) != len(want) || !reflect.DeepEqual(unplaced, wantUnplaced) {
			return false
		}
		for b := range bins {
			if !reflect.DeepEqual(bins[b].Counts, want[b].Counts) {
				return false
			}
			for d := range capacity {
				if math.Float64bits(bins[b].Used[d]) != math.Float64bits(want[b].Used[d]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: First-Fit never overfills a bin, packs every item exactly once,
// and leaves at most one bin below the 1/(2|R|) effective-utilization
// threshold (the "half-full" property in Lemma 1's proof).
func TestFirstFitProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		demands, counts, capacity := randomKinds(r)
		total := 0
		for _, c := range counts {
			if c > 0 {
				total += c
			}
		}
		bins, unplaced, err := FirstFitBounded(demands, counts, capacity, total)
		if err != nil || unplaced != nil {
			return false
		}
		packed := make([]int, len(demands))
		underHalf := 0
		for _, b := range bins {
			util := 0.0
			for d := range capacity {
				sum := 0.0
				for k, c := range b.Counts {
					sum += float64(c) * demands[k][d]
				}
				if sum > capacity[d]+1e-9 || math.Abs(sum-b.Used[d]) > 1e-9 {
					return false
				}
				util += b.Used[d] / capacity[d]
			}
			if util/float64(len(capacity)) < 1/(2*float64(len(capacity))) {
				underHalf++
			}
			for k, c := range b.Counts {
				packed[k] += c
			}
		}
		for k, c := range counts {
			if packed[k] != c && (c > 0 || packed[k] != 0) {
				return false
			}
		}
		return underHalf <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
