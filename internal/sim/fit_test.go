package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// placeInTypeScan is placeInType as it was before the fit trees: one
// first-fit or best-fit scan over the type's machines. It is kept here as
// the oracle of placeInType.
func (e *engine) placeInTypeScan(ti int, mt trace.MachineType, cpu, mem float64) int {
	first := e.typeFirst[ti]
	best := -1
	bestLeft := math.Inf(1)
	for mi := first; mi < first+mt.Count; mi++ {
		m := &e.machines[mi]
		if !e.holds(m, &mt, cpu, mem) {
			continue
		}
		if !e.bestFit {
			return mi
		}
		left := (mt.CPU-m.usedCPU-cpu)/mt.CPU + (mt.Mem-m.usedMem-mem)/mt.Mem
		if left < bestLeft {
			bestLeft = left
			best = mi
		}
	}
	return best
}

// structHeap is the finish heap as it was before the slab: it sifts whole
// runningTasks. It is kept here as the oracle of finishHeap.
type structHeap []runningTask

func (h *structHeap) push(rt runningTask) {
	*h = append(*h, rt)
	h.up(len(*h) - 1)
}

func (h *structHeap) pop() runningTask {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

func (h structHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[i].finish <= h[j].finish {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h structHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			return
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].finish < h[j1].finish {
			j = j2 // right child
		}
		if h[j].finish >= h[i].finish {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// staleFitTree returns the first machine type whose fit tree differs from
// one rebuilt from its machines, or -1. An off machine's stale leaf would
// not change a pick (it only weakens the pruning), so the picks alone do
// not pin that every writer refits.
func staleFitTree(e *engine) int {
	for ti, mt := range e.types {
		want := newFitTree(mt.Count)
		for k := 0; k < mt.Count; k++ {
			if m := &e.machines[e.typeFirst[ti]+k]; m.on {
				want.node[want.size+k] = fitBounds{m.usedCPU, m.usedMem, m.usedCPU, m.usedMem}
			}
		}
		for i := want.size - 1; i > 0; i-- {
			l, r := &want.node[2*i], &want.node[2*i+1]
			want.node[i] = fitBounds{min(l.minCPU, r.minCPU), min(l.minMem, r.minMem), max(l.maxCPU, r.maxCPU), max(l.maxMem, r.maxMem)}
		}
		for i := 1; i < len(want.node); i++ {
			if !sameBounds(&want.node[i], &e.fit[ti].node[i]) {
				return ti
			}
		}
	}
	return -1
}

// refitAll brings every fit tree in line with machine state a test wrote
// directly.
func refitAll(e *engine) {
	for mi := range e.machines {
		e.refit(mi)
	}
}

// TestFitTreeMatchesScan: after every update of one machine — powered on
// or off, booting, under repair, loaded or unloaded — the fit tree picks
// the scan's machine for every query, first fit and best fit. Usages come
// from a small set, or one ulp off it, so that best fit meets ties and
// near-ties in its score, and each
// round's queries include demands that land exactly on capacity+1e-12
// against some machine's usage (and one ulp either side), NaN, ±Inf,
// zero, negative and oversized demands. Type sizes cover a single
// machine, powers of two and the padding in between.
func TestFitTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	counts := []int{1, 2, 3, 5, 8, 13, 64, 75}
	tr := &trace.Trace{Horizon: 1e9}
	var models []energy.Model
	for i, c := range counts {
		capCPU, capMem := []float64{0.25, 0.5, 1}[i%3], []float64{1, 0.5, 0.75, 0.3}[i%4]
		tr.Machines = append(tr.Machines, trace.MachineType{ID: i + 1, CPU: capCPU, Mem: capMem, Count: c})
		models = append(models, energy.Model{CPUCap: capCPU, MemCap: capMem, IdleWatts: 1})
	}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   models,
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "x"},
		Period:   300,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	if err := validateConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	e.now = 1000
	nan, inf := math.NaN(), math.Inf(1)
	usage := func(capacity float64) float64 {
		switch r := rng.Intn(20); {
		case r == 0:
			return nan
		case r == 1:
			return inf
		case r < 8:
			return capacity * float64(rng.Intn(5)) / 4 // ties
		case r < 10:
			// One ulp off a tie: best fit must still prefer the lower score.
			return math.Nextafter(capacity*float64(rng.Intn(5))/4, float64(rng.Intn(3)-1))
		default:
			return capacity * rng.Float64()
		}
	}
	update := func() {
		mi := rng.Intn(len(e.machines))
		m := &e.machines[mi]
		mt := e.types[m.typeIdx]
		switch rng.Intn(6) {
		case 0:
			m.on = !m.on
		case 1:
			m.readyAt = e.now + float64(rng.Intn(3)-1) // booting, or ready
		case 2:
			m.downTil = e.now + float64(rng.Intn(3)-1) // under repair, or repaired
		case 3:
			m.usedCPU, m.usedMem = 0, 0
		default:
			m.usedCPU, m.usedMem = usage(mt.CPU), usage(mt.Mem)
		}
		e.refit(mi)
	}
	// Start from a mixed population rather than an all-off one.
	for i := 0; i < 4*len(e.machines); i++ {
		update()
	}
	fixed := []float64{nan, inf, -inf, 0, -0.1, 1.5, 0.05, 0.2, 0.5}
	var visits, calls int
	for round := 0; round < 3000; round++ {
		update()
		// Demands that reach exactly capacity+1e-12 on a random machine.
		m := &e.machines[rng.Intn(len(e.machines))]
		mt := e.types[m.typeIdx]
		exactCPU, exactMem := mt.CPU+1e-12-m.usedCPU, mt.Mem+1e-12-m.usedMem
		demands := append(fixed[:len(fixed):len(fixed)],
			exactCPU, math.Nextafter(exactCPU, inf), math.Nextafter(exactCPU, -inf),
			exactMem, math.Nextafter(exactMem, inf), math.Nextafter(exactMem, -inf))
		for q := 0; q < 12; q++ {
			cpu, mem := demands[rng.Intn(len(demands))], demands[rng.Intn(len(demands))]
			for _, bestFit := range []bool{false, true} {
				e.bestFit = bestFit
				for ti, mt := range e.types {
					before := e.fitVisits
					want := e.placeInTypeScan(ti, mt, cpu, mem)
					if got := e.placeInType(ti, mt, cpu, mem); got != want {
						t.Fatalf("round %d, type %d (%d machines), best fit %v, demand (%v, %v): tree picks %d, scan %d",
							round, ti, mt.Count, bestFit, cpu, mem, got, want)
					}
					visits += e.fitVisits - before
					calls++
				}
			}
		}
		if ti := staleFitTree(e); ti >= 0 {
			t.Fatalf("round %d: type %d's fit tree is stale", round, ti)
		}
	}
	t.Logf("%d queries, %.1f tree-node visits per query", calls, float64(visits)/float64(calls))
}

// TestFinishHeapOrdering: the slab heap pops tasks in the struct heap's
// order and walks them in its heap order (which relabelRunning and
// injectFailures follow), under random pushes and pops with many equal
// finish times.
func TestFinishHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h finishHeap
	var want structHeap
	id := 0
	for step := 0; step < 10000; step++ {
		if rng.Intn(20) < 11 || len(want) == 0 {
			id++
			rt := runningTask{finish: float64(rng.Intn(40)), machine: id, taskType: rng.Intn(3)}
			rt.task.ID = uint64(id)
			h.push(rt)
			want.push(rt)
		} else if got, w := *h.pop(), want.pop(); got != w {
			t.Fatalf("step %d: popped task %d (finish %g), want %d (finish %g)",
				step, got.task.ID, got.finish, w.task.ID, w.finish)
		}
		wantNext := math.Inf(1)
		if len(want) > 0 {
			wantNext = want[0].finish
		}
		if len(h.keys) != len(want) || h.next() != wantNext {
			t.Fatalf("step %d: %d keys, next %g; want %d, %g", step, len(h.keys), h.next(), len(want), wantNext)
		}
		for i := range want {
			if *h.at(i) != want[i] {
				t.Fatalf("step %d: heap position %d holds task %d, want %d", step, i, h.at(i).task.ID, want[i].task.ID)
			}
		}
	}
	for len(want) > 0 {
		if got, w := *h.pop(), want.pop(); !reflect.DeepEqual(got, w) {
			t.Fatalf("drain: popped task %d, want %d", got.task.ID, w.task.ID)
		}
	}
	if h.next() != math.Inf(1) || len(h.free) != len(h.slab) {
		t.Errorf("drained heap: next %g, %d free of %d slots", h.next(), len(h.free), len(h.slab))
	}
}
