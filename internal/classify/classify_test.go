package classify

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"harmony/internal/trace"
)

// syntheticTrace builds a workload with two obvious size clusters per group
// and a clean short/long duration split.
func syntheticTrace() *trace.Trace {
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 10}},
		Horizon:  10000,
	}
	id := uint64(0)
	add := func(n int, cpu, mem, dur float64, prio int) {
		for i := 0; i < n; i++ {
			id++
			tr.Tasks = append(tr.Tasks, trace.Task{
				ID: id, Submit: float64(id), Duration: dur,
				CPU: cpu, Mem: mem, Priority: prio,
			})
		}
	}
	// Gratis: small cluster (short + long) and big cluster (short only).
	add(50, 0.01, 0.01, 30, 0)
	add(20, 0.01, 0.01, 5000, 0)
	add(40, 0.2, 0.15, 30, 1)
	// Other: one cluster, mixed durations.
	add(60, 0.05, 0.05, 60, 5)
	add(15, 0.05, 0.05, 9000, 5)
	// Production: two clusters.
	add(30, 0.1, 0.3, 120, 10)
	add(30, 0.5, 0.4, 80000, 11)
	tr.SortTasks()
	return tr
}

func classesOf(ch *Characterization, g trace.PriorityGroup) []Class {
	var out []Class
	for _, c := range ch.Classes {
		if c.Group == g {
			out = append(out, c)
		}
	}
	return out
}

func TestCharacterizeBasics(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Classes) < 4 {
		t.Fatalf("classes = %d, want >= 4", len(ch.Classes))
	}
	// Every group got at least one class.
	for _, g := range trace.Groups() {
		if len(classesOf(ch, g)) == 0 {
			t.Errorf("group %v has no classes", g)
		}
	}
	// Class counts sum to task count.
	total := 0
	for _, c := range ch.Classes {
		total += c.Count
		if c.CPU <= 0 || c.Mem <= 0 {
			t.Errorf("class %d has non-positive centroid %v/%v", c.ID, c.CPU, c.Mem)
		}
		subTotal := 0
		for _, s := range c.Sub {
			subTotal += s.Count
		}
		if subTotal != c.Count {
			t.Errorf("class %d sub counts %d != %d", c.ID, subTotal, c.Count)
		}
	}
	if total != 245 {
		t.Errorf("total classified = %d, want 245", total)
	}
}

func TestCharacterizeEmpty(t *testing.T) {
	if _, err := Characterize(&trace.Trace{}, Config{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestCharacterizeSeparatesSizes(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Gratis should split small (0.01) from large (0.2) tasks.
	gratis := classesOf(ch, trace.Gratis)
	var hasSmall, hasLarge bool
	for _, c := range gratis {
		if c.CPU < 0.05 {
			hasSmall = true
		}
		if c.CPU > 0.1 {
			hasLarge = true
		}
	}
	if !hasSmall || !hasLarge {
		t.Errorf("gratis classes did not separate sizes: %+v", gratis)
	}
}

func TestShortLongSplit(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The gratis small class mixes 30s and 5000s tasks: must split.
	found := false
	for _, c := range classesOf(ch, trace.Gratis) {
		if c.CPU < 0.05 && len(c.Sub) == 2 {
			found = true
			short, long := c.Sub[0], c.Sub[1]
			if short.MeanDuration >= long.MeanDuration {
				t.Errorf("sub-classes not sorted: %v >= %v", short.MeanDuration, long.MeanDuration)
			}
			if long.MeanDuration < 3*short.MeanDuration {
				t.Errorf("long/short separation too small: %v vs %v", long.MeanDuration, short.MeanDuration)
			}
		}
	}
	if !found {
		t.Error("no gratis class with a short/long split")
	}
}

func TestLabelNearestClass(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A task near the large gratis cluster must label to it.
	id := ch.Label(trace.Task{CPU: 0.19, Mem: 0.16, Priority: 0})
	if id < 0 {
		t.Fatal("label failed")
	}
	c := ch.Classes[id]
	if c.Group != trace.Gratis {
		t.Errorf("labeled into group %v", c.Group)
	}
	if c.CPU < 0.1 {
		t.Errorf("labeled into small class (cpu centroid %v)", c.CPU)
	}
}

// TestLabelAllocFree lids the labeling every ingested task pays on the
// online path: the nearest-centroid search allocates nothing.
func TestLabelAllocFree(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	task := trace.Task{CPU: 0.19, Mem: 0.16, Priority: 0}
	if allocs := testing.AllocsPerRun(100, func() { ch.Label(task) }); allocs != 0 {
		t.Errorf("Label allocates %v times, want 0", allocs)
	}
}

func TestLabelerInitialAndRefresh(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabeler(ch)
	id, ok := l.Initial(trace.Task{CPU: 0.01, Mem: 0.01, Priority: 0})
	if !ok {
		t.Fatal("Initial failed")
	}
	if id.Sub != 0 {
		t.Errorf("initial sub = %d, want 0 (short)", id.Sub)
	}
	c := ch.Classes[id.Class]
	if len(c.Sub) < 2 {
		t.Skip("class did not split; relabel not applicable")
	}
	// Below the boundary: stays short.
	still := l.Refresh(id, c.Sub[0].MaxDuration*0.5)
	if still.Sub != 0 {
		t.Error("refreshed to long before boundary")
	}
	// Past the boundary: upgrades to long.
	up := l.Refresh(id, c.Sub[0].MaxDuration*1.01)
	if up.Sub != 1 {
		t.Error("did not upgrade to long past boundary")
	}
	// Refresh of a long label is a no-op.
	again := l.Refresh(up, 1e12)
	if again != up {
		t.Error("long label changed on refresh")
	}
	// Refresh with a bogus class is a no-op.
	bogus := l.Refresh(TypeID{Class: -1}, 100)
	if bogus.Class != -1 {
		t.Error("bogus class mutated")
	}
}

// TestLabelerIndexMatchesTaskTypes pins the index-returning pair to the
// TypeID pair: for every task type and age, RefreshIndex lands on the
// position in TaskTypes() of what Refresh returns, and InitialIndex on the
// position of what Initial returns.
func TestLabelerIndexMatchesTaskTypes(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	types := ch.TaskTypes()
	pos := make(map[TypeID]int, len(types))
	for i, tt := range types {
		pos[tt.ID] = i
	}
	l := NewLabeler(ch)
	for i, tt := range types {
		for _, age := range []float64{0, 1, 100, 1e4, 1e12} {
			if got, want := l.RefreshIndex(i, age), pos[l.Refresh(tt.ID, age)]; got != want {
				t.Errorf("RefreshIndex(%d, %v) = %d, want %d", i, age, got, want)
			}
		}
	}
	for _, idx := range []int{-1, len(types)} {
		if got := l.RefreshIndex(idx, 1e12); got != idx {
			t.Errorf("RefreshIndex(%d) = %d, want unchanged", idx, got)
		}
	}
	for _, task := range syntheticTrace().Tasks {
		id, ok := l.Initial(task)
		idx, okIdx := l.InitialIndex(task)
		if ok != okIdx || (ok && idx != pos[id]) {
			t.Fatalf("InitialIndex = %d,%v; Initial = %v,%v (position %d)", idx, okIdx, id, ok, pos[id])
		}
	}
}

func TestTaskTypes(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	types := ch.TaskTypes()
	if len(types) < len(ch.Classes) {
		t.Fatalf("types = %d < classes = %d", len(types), len(ch.Classes))
	}
	total := 0
	for _, tt := range types {
		total += tt.Count
		if tt.MeanDuration <= 0 {
			t.Errorf("type %+v has non-positive duration", tt.ID)
		}
		if tt.SqCV < 0 {
			t.Errorf("type %+v has negative CV²", tt.ID)
		}
	}
	if total != 245 {
		t.Errorf("type counts sum = %d, want 245", total)
	}
}

// All tasks of the trace label back into a class of their own group.
func TestLabelConsistency(t *testing.T) {
	tr := syntheticTrace()
	ch, err := Characterize(tr, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Tasks {
		id := ch.Label(task)
		if id < 0 {
			t.Fatalf("task %d unlabeled", task.ID)
		}
		if ch.Classes[id].Group != task.Group() {
			t.Fatalf("task %d labeled across groups", task.ID)
		}
	}
}

func TestCharacterizeOnGeneratedTrace(t *testing.T) {
	cfg := trace.DefaultConfig(11)
	cfg.Horizon = 2 * trace.Hour
	cfg.RatePerS = 1
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Characterize(tr, Config{Seed: 8, MaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Stddev should be well below the mean for most classes (the paper's
	// accuracy check in Section IX-A). Require it for at least half.
	good := 0
	for _, c := range ch.Classes {
		if c.CPUStd < c.CPU && c.MemStd < c.Mem {
			good++
		}
	}
	if good*2 < len(ch.Classes) {
		t.Errorf("only %d/%d classes have std < mean", good, len(ch.Classes))
	}
	// Runtime labeling matches offline assignment class counts roughly:
	// every task must at least label into its own group.
	for _, task := range tr.Tasks[:100] {
		if id := ch.Label(task); id < 0 || ch.Classes[id].Group != task.Group() {
			t.Fatalf("bad label for %+v", task)
		}
	}
}

// TestRefreshBoundaryExact pins the relabel boundary semantics on a
// hand-built characterization: the short→long upgrade requires the
// observed age to strictly exceed the short sub-class's MaxDuration.
func TestRefreshBoundaryExact(t *testing.T) {
	ch := &Characterization{
		Classes: []Class{
			{
				ID: 0, Group: trace.Gratis,
				CPU: 0.02, Mem: 0.02,
				Sub: []SubClass{
					{MeanDuration: 60, SqCV: 1.2, MaxDuration: 100, Count: 90},
					{MeanDuration: 5000, SqCV: 0.5, MaxDuration: 20000, Count: 10},
				},
				logCentroid: [2]float64{-3.9, -3.9},
			},
			{
				ID: 1, Group: trace.Gratis,
				CPU: 0.2, Mem: 0.2,
				Sub: []SubClass{
					{MeanDuration: 30, SqCV: 1.0, MaxDuration: 50, Count: 40},
				},
				logCentroid: [2]float64{-1.6, -1.6},
			},
		},
	}
	ch.byGroup[trace.Gratis.Index()] = []int{0, 1}
	l := NewLabeler(ch)

	short := TypeID{Class: 0, Sub: 0}
	// Exactly at the boundary: stays short (the boundary is the largest
	// duration observed among short members, so age == MaxDuration is
	// still consistent with a short task).
	if got := l.Refresh(short, 100); got != short {
		t.Errorf("age == MaxDuration relabeled to %+v", got)
	}
	// The smallest representable step above the boundary upgrades.
	justOver := math.Nextafter(100, 200)
	if got := l.Refresh(short, justOver); got != (TypeID{Class: 0, Sub: 1}) {
		t.Errorf("age just over boundary = %+v, want long", got)
	}
	// A class without a long sub-class never upgrades, whatever the age.
	single := TypeID{Class: 1, Sub: 0}
	if got := l.Refresh(single, 1e12); got != single {
		t.Errorf("single-sub class relabeled to %+v", got)
	}
	// Out-of-range class indices pass through untouched.
	over := TypeID{Class: 2, Sub: 0}
	if got := l.Refresh(over, 1e12); got != over {
		t.Errorf("out-of-range class mutated to %+v", got)
	}
}

// TestRefreshAfterInitial walks the full online sequence: classification
// on arrival, then age-driven refreshes as the task keeps running.
func TestRefreshAfterInitial(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabeler(ch)
	task := trace.Task{CPU: 0.01, Mem: 0.01, Priority: 0}
	id, ok := l.Initial(task)
	if !ok || id.Sub != 0 {
		t.Fatalf("Initial = %+v, %v", id, ok)
	}
	c := &ch.Classes[id.Class]
	if len(c.Sub) < 2 {
		t.Skip("class did not split; relabel not applicable")
	}
	boundary := c.Sub[0].MaxDuration
	// Monotone ages crossing the boundary: the label changes exactly
	// once and then sticks.
	ages := []float64{boundary / 4, boundary / 2, boundary, boundary * 1.5, boundary * 10}
	changes := 0
	cur := id
	for _, age := range ages {
		next := l.Refresh(cur, age)
		if next != cur {
			changes++
			if next.Class != cur.Class || next.Sub != 1 {
				t.Fatalf("refresh at age %v produced %+v", age, next)
			}
		}
		cur = next
	}
	if changes != 1 {
		t.Errorf("label changed %d times, want 1", changes)
	}
}

// TestInitialEmptyGroup covers the classless-group path: tasks whose
// priority group produced no classes cannot be labeled.
func TestInitialEmptyGroup(t *testing.T) {
	ch := &Characterization{
		Classes: []Class{{
			ID: 0, Group: trace.Gratis,
			Sub:         []SubClass{{MeanDuration: 60, MaxDuration: 100, Count: 1}},
			logCentroid: [2]float64{-3.9, -3.9},
		}},
	}
	ch.byGroup[trace.Gratis.Index()] = []int{0}
	l := NewLabeler(ch)

	// Production has no classes: Initial must report failure with the
	// zero TypeID, and Label must return -1.
	prod := trace.Task{CPU: 0.1, Mem: 0.1, Priority: 10}
	id, ok := l.Initial(prod)
	if ok || id != (TypeID{}) {
		t.Errorf("Initial on empty group = %+v, %v", id, ok)
	}
	if got := ch.Label(prod); got != -1 {
		t.Errorf("Label on empty group = %d, want -1", got)
	}
	// The populated group still labels.
	if _, ok := l.Initial(trace.Task{CPU: 0.02, Mem: 0.02, Priority: 0}); !ok {
		t.Error("gratis task unlabeled")
	}
}

// badSizes are the task shapes log-space clustering cannot place: a CPU,
// Mem or Duration outside (0, +Inf) has a log of −Inf or NaN.
var badSizes = []struct {
	name           string
	cpu, mem, dur  float64
	badForLabeling bool // Label looks at CPU and Mem only
}{
	{"zero cpu", 0, 0.1, 60, true},
	{"negative mem", 0.1, -0.2, 60, true},
	{"NaN cpu", math.NaN(), 0.1, 60, true},
	{"infinite mem", 0.1, math.Inf(1), 60, true},
	{"zero duration", 0.1, 0.1, 0, false},
	{"NaN duration", 0.1, 0.1, math.NaN(), false},
	{"infinite duration", 0.1, 0.1, math.Inf(1), false},
}

// Characterize names the first unclusterable task instead of averaging
// −Inf/NaN into the centroids.
func TestCharacterizeRejectsUnloggableTasks(t *testing.T) {
	for _, tt := range badSizes {
		t.Run(tt.name, func(t *testing.T) {
			tr := syntheticTrace()
			bad := &tr.Tasks[17]
			bad.CPU, bad.Mem, bad.Duration = tt.cpu, tt.mem, tt.dur
			ch, err := Characterize(tr, Config{Seed: 1})
			if err == nil {
				t.Fatalf("accepted; %d classes", len(ch.Classes))
			}
			if want := fmt.Sprintf("task %d (index 17)", bad.ID); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		})
	}
}

// A NaN elbow threshold is an error, not "every group gets MaxK classes".
func TestCharacterizeRejectsNaNMinGain(t *testing.T) {
	_, err := Characterize(syntheticTrace(), Config{Seed: 1, MinGain: math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "MinGain") {
		t.Errorf("err = %v, want one naming MinGain", err)
	}
}

// A task whose sizes have no logarithm belongs to no class: Label and
// both Labeler entry points say so instead of comparing NaN distances.
func TestLabelRejectsUnloggableTasks(t *testing.T) {
	ch, err := Characterize(syntheticTrace(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabeler(ch)
	for _, tt := range badSizes {
		t.Run(tt.name, func(t *testing.T) {
			task := trace.Task{CPU: tt.cpu, Mem: tt.mem, Duration: tt.dur, Priority: 10}
			cls := ch.Label(task)
			id, okID := l.Initial(task)
			idx, okIdx := l.InitialIndex(task)
			if !tt.badForLabeling {
				if cls < 0 || !okID || !okIdx {
					t.Errorf("sizes are fine, yet Label = %d, Initial ok = %v, InitialIndex ok = %v", cls, okID, okIdx)
				}
				return
			}
			if cls != -1 {
				t.Errorf("Label = %d, want -1", cls)
			}
			if okID || id != (TypeID{}) {
				t.Errorf("Initial = %+v, %v, want the zero TypeID and false", id, okID)
			}
			if okIdx || idx != 0 {
				t.Errorf("InitialIndex = %d, %v, want 0 and false", idx, okIdx)
			}
		})
	}
}
