package sim

import (
	"math"

	"harmony/internal/trace"
)

// fitBounds bounds the usage of the powered machines below one node of a
// fit tree; with none powered, the minima are +Inf and the maxima -Inf.
type fitBounds struct {
	minCPU, minMem, maxCPU, maxMem float64
}

// fitTree is a complete binary tree over one machine type's contiguous
// machine ids. Node 1 is the root, node i has children 2i and 2i+1, and
// the type's k-th machine is leaf size+k; leaves past its count hold no
// machine.
type fitTree struct {
	size int
	node []fitBounds
}

func newFitTree(count int) fitTree {
	size := 1
	for size < count {
		size *= 2
	}
	t := fitTree{size: size, node: make([]fitBounds, 2*size)}
	inf := math.Inf(1)
	for i := range t.node {
		t.node[i] = fitBounds{inf, inf, -inf, -inf}
	}
	return t
}

// refit brings machine mi's leaf in line with its power state and usage
// and climbs until a node's bounds come out unchanged. Every writer of
// machine.on, usedCPU or usedMem calls it after writing.
func (e *engine) refit(mi int) {
	m := &e.machines[mi]
	t := &e.fit[m.typeIdx]
	inf := math.Inf(1)
	b := fitBounds{inf, inf, -inf, -inf}
	if m.on {
		b = fitBounds{m.usedCPU, m.usedMem, m.usedCPU, m.usedMem}
	}
	for i := t.size + mi - e.typeFirst[m.typeIdx]; i > 0; i /= 2 {
		if sameBounds(&t.node[i], &b) {
			return
		}
		t.node[i] = b
		l, r := &t.node[i&^1], &t.node[i|1]
		b = fitBounds{min(l.minCPU, r.minCPU), min(l.minMem, r.minMem), max(l.maxCPU, r.maxCPU), max(l.maxMem, r.maxMem)}
	}
}

// sameBounds compares bit patterns: exact, and a NaN equals itself.
func sameBounds(a, b *fitBounds) bool {
	return math.Float64bits(a.minCPU) == math.Float64bits(b.minCPU) &&
		math.Float64bits(a.minMem) == math.Float64bits(b.minMem) &&
		math.Float64bits(a.maxCPU) == math.Float64bits(b.maxCPU) &&
		math.Float64bits(a.maxMem) == math.Float64bits(b.maxMem)
}

// placeInType picks a type-ti machine for a task occupying cpu and mem:
// legacy first fit by default, the lowest id that holds it; best fit
// (least leftover capacity, lowest id on ties) when the policy requests
// scheduler coordination — best fit keeps large contiguous slots
// available, which matters because some containers occupy almost a whole
// machine. Returns -1 when no machine holds the task.
//
// It walks the type's fit tree in id order and skips a subtree when its
// least-used powered machine cannot hold the task: minCPU+cpu is the sum
// holds forms, and float addition is monotone, so no machine below would
// pass holds. Best fit also skips a subtree when leftAfter at its most
// used machine is not below the best so far: leftAfter is non-increasing
// in both usages, so that bounds every machine below from beneath. Both
// tests only skip machines the scan would pass over, so the pick is the
// scan's, bit for bit; a NaN bound compares false and skips nothing.
func (e *engine) placeInType(ti int, mt trace.MachineType, cpu, mem float64) int {
	t, first := &e.fit[ti], e.typeFirst[ti]
	capCPU, capMem := mt.CPU+1e-12, mt.Mem+1e-12
	best := -1
	bestLeft := math.Inf(1)
	for i := 1; ; {
		e.fitVisits++
		b := &t.node[i]
		if !(b.minCPU+cpu > capCPU || b.minMem+mem > capMem) {
			if i < t.size {
				if !e.bestFit || !(leftAfter(&mt, b.maxCPU, b.maxMem, cpu, mem) >= bestLeft) {
					i *= 2 // left child first: id order
					continue
				}
			} else if k := i - t.size; k >= mt.Count {
				break // only padding from here on
			} else if mi := first + k; e.holds(&e.machines[mi], &mt, cpu, mem) {
				if !e.bestFit {
					e.scanVisits += k + 1
					return mi
				}
				m := &e.machines[mi]
				if left := leftAfter(&mt, m.usedCPU, m.usedMem, cpu, mem); left < bestLeft {
					bestLeft = left
					best = mi
				}
			}
		}
		// On to the next subtree in id order: out of the right children,
		// then one step right.
		for i&1 == 1 {
			i /= 2
		}
		if i == 0 {
			break
		}
		i++
	}
	e.scanVisits += mt.Count
	return best
}

// leftAfter is best fit's score: the capacity a type-mt machine using
// usedCPU and usedMem would have left, as fractions of its capacity,
// after taking cpu and mem.
func leftAfter(mt *trace.MachineType, usedCPU, usedMem, cpu, mem float64) float64 {
	return (mt.CPU-usedCPU-cpu)/mt.CPU + (mt.Mem-usedMem-mem)/mt.Mem
}
