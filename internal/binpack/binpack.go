// Package binpack implements the vector bin-packing primitives behind
// HARMONY's integer realization of the fractional CBS-RELAX plan
// (Section VII-C): First-Fit (whose "half-full" property powers Lemma 1),
// First-Fit-Decreasing, Best-Fit, bounded-bin packing, and the drain/repack
// step Algorithm 1 uses to empty machines before turning them off.
package binpack

import (
	"errors"
	"fmt"
	"sort"
)

// Item is one multi-dimensional object to pack (a container in HARMONY).
type Item struct {
	ID      int
	Demands []float64 // one entry per resource dimension
}

// Bin is one target with fixed capacity per dimension (a machine).
type Bin struct {
	Capacity []float64
	Used     []float64
	Items    []Item
}

// NewBin creates an empty bin with the given capacity (copied).
func NewBin(capacity []float64) *Bin {
	c := make([]float64, len(capacity))
	copy(c, capacity)
	return &Bin{Capacity: c, Used: make([]float64, len(capacity))}
}

// Fits reports whether it can be added without exceeding any dimension.
func (b *Bin) Fits(it Item) bool {
	if len(it.Demands) != len(b.Capacity) {
		return false
	}
	for d, dem := range it.Demands {
		if b.Used[d]+dem > b.Capacity[d]+1e-12 {
			return false
		}
	}
	return true
}

// Add places it in the bin. It returns an error when it does not fit.
func (b *Bin) Add(it Item) error {
	if !b.Fits(it) {
		return fmt.Errorf("binpack: item %d does not fit", it.ID)
	}
	for d, dem := range it.Demands {
		b.Used[d] += dem
	}
	b.Items = append(b.Items, it)
	return nil
}

// Remove takes the item with the given ID out of the bin. It reports
// whether the item was present.
func (b *Bin) Remove(id int) bool {
	for i, it := range b.Items {
		if it.ID == id {
			for d, dem := range it.Demands {
				b.Used[d] -= dem
				if b.Used[d] < 0 {
					b.Used[d] = 0
				}
			}
			b.Items = append(b.Items[:i], b.Items[i+1:]...)
			return true
		}
	}
	return false
}

// EffectiveUtilization is the mean per-dimension utilization, the measure
// used in the paper's Lemma 1 proof.
func (b *Bin) EffectiveUtilization() float64 {
	if len(b.Capacity) == 0 {
		return 0
	}
	sum := 0.0
	for d := range b.Capacity {
		if b.Capacity[d] > 0 {
			sum += b.Used[d] / b.Capacity[d]
		}
	}
	return sum / float64(len(b.Capacity))
}

var errDimMismatch = errors.New("binpack: item dimensionality differs from capacity")

func validate(items []Item, capacity []float64) error {
	if len(capacity) == 0 {
		return errors.New("binpack: empty capacity vector")
	}
	for _, c := range capacity {
		if c <= 0 {
			return errors.New("binpack: non-positive capacity")
		}
	}
	for _, it := range items {
		if len(it.Demands) != len(capacity) {
			return errDimMismatch
		}
		for d, dem := range it.Demands {
			if dem < 0 {
				return fmt.Errorf("binpack: item %d negative demand", it.ID)
			}
			if dem > capacity[d]+1e-12 {
				return fmt.Errorf("binpack: item %d exceeds bin capacity in dim %d", it.ID, d)
			}
		}
	}
	return nil
}

// FirstFit packs all items into identical bins of the given capacity,
// opening a new bin whenever an item fits in none. Items oversized for a
// single bin cause an error.
func FirstFit(items []Item, capacity []float64) ([]*Bin, error) {
	// With one bin allowed per item the bound never binds.
	bins, _, err := FirstFitBounded(items, capacity, len(items))
	return bins, err
}

// FirstFitDecreasing sorts items by their largest normalized dimension,
// descending, then first-fits. It typically uses fewer bins than plain
// first-fit.
func FirstFitDecreasing(items []Item, capacity []float64) ([]*Bin, error) {
	if err := validate(items, capacity); err != nil {
		return nil, err
	}
	sorted := make([]Item, len(items))
	copy(sorted, items)
	key := func(it Item) float64 {
		mx := 0.0
		for d, dem := range it.Demands {
			v := dem / capacity[d]
			if v > mx {
				mx = v
			}
		}
		return mx
	}
	sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) > key(sorted[j]) })
	return FirstFit(sorted, capacity)
}

// BestFit places each item into the feasible bin with the highest
// effective utilization, opening a new bin when none fits.
func BestFit(items []Item, capacity []float64) ([]*Bin, error) {
	if err := validate(items, capacity); err != nil {
		return nil, err
	}
	var bins []*Bin
	for _, it := range items {
		best := -1
		bestU := -1.0
		for i, b := range bins {
			if b.Fits(it) && b.EffectiveUtilization() > bestU {
				best, bestU = i, b.EffectiveUtilization()
			}
		}
		if best >= 0 {
			if err := bins[best].Add(it); err != nil {
				return nil, err
			}
			continue
		}
		b := NewBin(capacity)
		if err := b.Add(it); err != nil {
			return nil, err
		}
		bins = append(bins, b)
	}
	return bins, nil
}

// FirstFitBounded first-fits items into at most maxBins bins and returns
// the leftovers that did not fit. This realizes the controller's bound of
// z*+1 machines per type (Lemma 1).
func FirstFitBounded(items []Item, capacity []float64, maxBins int) (bins []*Bin, unplaced []Item, err error) {
	if maxBins < 0 {
		return nil, nil, errors.New("binpack: negative bin budget")
	}
	if err := validate(items, capacity); err != nil {
		return nil, nil, err
	}
	for _, it := range items {
		placed := false
		for _, b := range bins {
			if b.Fits(it) {
				if err := b.Add(it); err != nil {
					return nil, nil, err
				}
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if len(bins) < maxBins {
			b := NewBin(capacity)
			if err := b.Add(it); err != nil {
				return nil, nil, err
			}
			bins = append(bins, b)
			continue
		}
		unplaced = append(unplaced, it)
	}
	return bins, unplaced, nil
}

// Drain tries to empty bins down to targetBins by moving the items of the
// least-utilized bins into the remaining ones (first-fit). It returns the
// surviving bins and the items that could not be re-homed (these stay on
// their machines, so the caller keeps the corresponding machine on). This
// is the container-reassignment ("re-parking") step of Algorithm 1.
func Drain(bins []*Bin, targetBins int) (kept []*Bin, stranded []Item) {
	if targetBins < 0 {
		targetBins = 0
	}
	if len(bins) <= targetBins {
		return bins, nil
	}
	sorted := make([]*Bin, len(bins))
	copy(sorted, bins)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].EffectiveUtilization() > sorted[j].EffectiveUtilization()
	})
	kept = sorted[:targetBins]
	for _, victim := range sorted[targetBins:] {
		for _, it := range victim.Items {
			moved := false
			for _, dst := range kept {
				if dst.Fits(it) {
					//harmony:allow errflow Add cannot fail after the Fits check above
					_ = dst.Add(it)
					moved = true
					break
				}
			}
			if !moved {
				stranded = append(stranded, it)
			}
		}
	}
	return kept, stranded
}

// HalfFullCount returns how many bins have effective utilization at most
// 1/(2·dims) — by the Lemma 1 argument, First-Fit leaves at most one such
// bin per packing.
func HalfFullCount(bins []*Bin, dims int) int {
	n := 0
	threshold := 1.0 / (2 * float64(dims))
	for _, b := range bins {
		if b.EffectiveUtilization() < threshold {
			n++
		}
	}
	return n
}
