// Package binpack implements the one vector packing behind HARMONY's
// integer realization of the fractional CBS-RELAX plan (Section VII-C,
// Algorithm 1): First-Fit into a bounded number of identical bins, whose
// "half-full" property powers Lemma 1.
package binpack

import (
	"errors"
	"fmt"
)

// Bin is one packed bin (a machine): how many items of each kind it
// holds and the capacity they use per dimension.
type Bin struct {
	Counts []int     // by kind
	Used   []float64 // by dimension
}

// validate checks the kinds that have items to pack; a kind with a zero
// (or negative) count is never placed, so its demand is not looked at.
func validate(demands [][]float64, counts []int, capacity []float64, maxBins int) error {
	if maxBins < 0 {
		return errors.New("binpack: negative bin budget")
	}
	if len(capacity) == 0 {
		return errors.New("binpack: empty capacity vector")
	}
	for _, c := range capacity {
		if !(c > 0) {
			return errors.New("binpack: non-positive capacity")
		}
	}
	if len(counts) != len(demands) {
		return fmt.Errorf("binpack: %d counts for %d kinds", len(counts), len(demands))
	}
	for k, dem := range demands {
		if counts[k] <= 0 {
			continue
		}
		if len(dem) != len(capacity) {
			return fmt.Errorf("binpack: kind %d dimensionality differs from capacity", k)
		}
		for d, v := range dem {
			if !(v >= 0) {
				return fmt.Errorf("binpack: kind %d negative demand", k)
			}
			if v > capacity[d]+1e-12 {
				return fmt.Errorf("binpack: kind %d exceeds bin capacity in dim %d", k, d)
			}
		}
	}
	return nil
}

// fits reports whether one more item of demand dem fits beside used.
func fits(used, dem, capacity []float64) bool {
	for d, v := range dem {
		if used[d]+v > capacity[d]+1e-12 {
			return false
		}
	}
	return true
}

// FirstFitBounded first-fits counts[k] items of demand demands[k], kinds
// in index order, into at most maxBins bins of the given capacity: each
// item goes to the lowest-index bin it fits, a new bin opens while the
// budget lasts, and what fits nowhere is returned as unplaced counts by
// kind (nil when everything was placed). This realizes the controller's
// bound of z*+1 machines per type (Lemma 1).
func FirstFitBounded(demands [][]float64, counts []int, capacity []float64, maxBins int) (bins []Bin, unplaced []int, err error) {
	if err := validate(demands, counts, capacity, maxBins); err != nil {
		return nil, nil, err
	}
	for k, dem := range demands {
		// Bins only fill up, so a bin that refused one item of this kind
		// refuses the rest: the search resumes where the last one ended.
		b := 0
		for left := counts[k]; left > 0; left-- {
			for b < len(bins) && !fits(bins[b].Used, dem, capacity) {
				b++
			}
			if b == len(bins) {
				if len(bins) == maxBins {
					if unplaced == nil {
						unplaced = make([]int, len(demands))
					}
					unplaced[k] = left
					break
				}
				bins = append(bins, Bin{Counts: make([]int, len(demands)), Used: make([]float64, len(capacity))})
			}
			bins[b].Counts[k]++
			for d, v := range dem {
				bins[b].Used[d] += v
			}
		}
	}
	return bins, unplaced, nil
}
