// Package classify implements HARMONY's task characterization (Section V):
// a two-step clustering that first groups tasks by static features
// (priority group, CPU and memory demand) and then splits each class into
// short/long duration sub-classes, plus the online labeler that assigns
// arriving tasks to classes by nearest centroid and upgrades short labels
// to long as observed runtime crosses the class boundary.
package classify

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/kmeans"
	"harmony/internal/stats"
	"harmony/internal/trace"
)

// SubClass is a duration sub-class within a task class (step two of the
// characterization). Classes have at most two sub-classes: short and long.
type SubClass struct {
	MeanDuration float64 // mean task duration (seconds)
	SqCV         float64 // squared coefficient of variation of durations
	MaxDuration  float64 // largest member duration (the relabel boundary for short)
	Count        int
}

// QuantileProbs are the fixed probabilities at which per-class demand
// quantiles are recorded; container sizing picks from these to bound
// per-task coverage when class demand is too skewed for the Gaussian
// model (the paper's non-Gaussian generalization via concentration
// bounds, Section VII-A).
var QuantileProbs = [4]float64{0.80, 0.90, 0.95, 0.99}

// Class is one task class produced by step one: tasks of a single priority
// group with similar CPU/memory demand. CPU/Mem are the arithmetic-space
// centroid; the Std fields feed container sizing (Eq. 3).
type Class struct {
	ID     int
	Group  trace.PriorityGroup
	CPU    float64
	Mem    float64
	CPUStd float64
	MemStd float64
	Count  int

	// CPUQuantiles/MemQuantiles hold the class demand quantiles at
	// QuantileProbs.
	CPUQuantiles [4]float64
	MemQuantiles [4]float64

	// Sub holds the duration sub-classes sorted by mean duration
	// (short first). A class whose durations do not split keeps one.
	Sub []SubClass

	// logCentroid is the step-one centroid in log space, used for
	// nearest-centroid labeling.
	logCentroid kmeans.Point
}

// Config controls characterization. The MaxK and MinGain defaults are
// the values every front door (facade, harmony-classify) runs at;
// nobody else writes these numbers.
type Config struct {
	MaxK    int     // maximum classes per priority group (default 12)
	MinGain float64 // elbow threshold for ChooseK (default 0.05)
	Seed    int64
}

// restarts is the number of k-means restarts behind both clustering steps.
const restarts = 4

func (cfg *Config) defaults() {
	if cfg.MaxK <= 0 {
		cfg.MaxK = 12
	}
	if cfg.MinGain <= 0 {
		cfg.MinGain = 0.05
	}
}

// Characterization is the complete two-step clustering of a workload.
type Characterization struct {
	Classes []Class
	// byGroup indexes Classes by priority group for labeling.
	byGroup [trace.NumGroups][]int
}

// ErrNoTasks is returned when the input trace has no tasks.
var ErrNoTasks = errors.New("classify: no tasks")

// Characterize runs the two-step clustering over the tasks of tr.
//
// Step one clusters each priority group on (log CPU, log Mem); the log
// transform is essential because task sizes span orders of magnitude
// (Section III-D) and arithmetic-space K-means would be dominated by the
// few largest tasks. Step two runs k=2 K-means on log duration within each
// class, yielding the short/long split the online labeler relies on.
//
// Both steps work in log space, so every task's CPU, Mem and Duration
// must lie in (0, +Inf); the first task that does not is reported as an
// error rather than clustered at −Inf/NaN.
func Characterize(tr *trace.Trace, cfg Config) (*Characterization, error) {
	// NaN fails defaults' "<= 0" test and then every "gain < MinGain"
	// test in ChooseK, which would hand each group MaxK classes.
	if math.IsNaN(cfg.MinGain) {
		return nil, errors.New("classify: MinGain is NaN")
	}
	cfg.defaults()
	if len(tr.Tasks) == 0 {
		return nil, ErrNoTasks
	}

	var (
		ptsByGroup   [trace.NumGroups][]kmeans.Point
		tasksByGroup [trace.NumGroups][]*trace.Task
	)
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		p, ok := logSizes(t)
		if !ok || !(t.Duration > 0) || math.IsInf(t.Duration, 1) {
			return nil, fmt.Errorf("classify: task %d (index %d): cpu %v, mem %v and duration %v must all be positive and finite",
				t.ID, i, t.CPU, t.Mem, t.Duration)
		}
		gi := t.Group().Index()
		ptsByGroup[gi] = append(ptsByGroup[gi], kmeans.Point{p[0], p[1]})
		tasksByGroup[gi] = append(tasksByGroup[gi], t)
	}

	ch := &Characterization{}
	for _, g := range trace.Groups() {
		pts, tasks := ptsByGroup[g.Index()], tasksByGroup[g.Index()]
		if len(pts) == 0 {
			continue
		}
		maxK := cfg.MaxK
		if maxK > len(pts) {
			maxK = len(pts)
		}
		_, res, err := kmeans.ChooseK(pts, maxK, cfg.MinGain, kmeans.Config{
			Seed:     cfg.Seed + int64(g),
			Restarts: restarts,
		})
		if err != nil {
			return nil, fmt.Errorf("classify: step one for %v: %w", g, err)
		}
		if err := ch.addGroupClasses(g, res, tasks, cfg); err != nil {
			return nil, err
		}
	}
	if len(ch.Classes) == 0 {
		return nil, ErrNoTasks
	}
	return ch, nil
}

func (ch *Characterization) addGroupClasses(
	g trace.PriorityGroup,
	res *kmeans.Result,
	tasks []*trace.Task,
	cfg Config,
) error {
	k := len(res.Centroids)
	members := make([][]*trace.Task, k)
	for i, t := range tasks {
		c := res.Assignment[i]
		members[c] = append(members[c], t)
	}
	for c := 0; c < k; c++ {
		if len(members[c]) == 0 {
			continue
		}
		cpus := make([]float64, len(members[c]))
		mems := make([]float64, len(members[c]))
		durs := make([]float64, len(members[c]))
		for i, t := range members[c] {
			cpus[i] = t.CPU
			mems[i] = t.Mem
			durs[i] = t.Duration
		}
		cls := Class{
			ID:          len(ch.Classes),
			Group:       g,
			CPU:         stats.Mean(cpus),
			Mem:         stats.Mean(mems),
			CPUStd:      stats.StdDev(cpus),
			MemStd:      stats.StdDev(mems),
			Count:       len(members[c]),
			logCentroid: res.Centroids[c],
		}
		for qi, prob := range QuantileProbs {
			cq, err := stats.Percentile(cpus, prob*100)
			if err != nil {
				return err
			}
			mq, err := stats.Percentile(mems, prob*100)
			if err != nil {
				return err
			}
			cls.CPUQuantiles[qi] = cq
			cls.MemQuantiles[qi] = mq
		}
		cls.Sub = splitDurations(durs, cfg)
		ch.byGroup[g.Index()] = append(ch.byGroup[g.Index()], cls.ID)
		ch.Classes = append(ch.Classes, cls)
	}
	return nil
}

// splitDurations runs step two: k=2 clustering on log duration, returning
// sub-classes sorted short-first. When the class is too small or durations
// are homogeneous, a single sub-class is returned.
func splitDurations(durs []float64, cfg Config) []SubClass {
	if len(durs) < 4 {
		return []SubClass{subClassOf(durs)}
	}
	pts := make([]kmeans.Point, len(durs))
	for i, d := range durs {
		//harmony:allow nansource Characterize admits only durations in (0, +Inf)
		pts[i] = kmeans.Point{math.Log(d)}
	}
	res, err := kmeans.Run(pts, kmeans.Config{K: 2, Seed: cfg.Seed, Restarts: restarts})
	if err != nil {
		return []SubClass{subClassOf(durs)}
	}
	var a, b []float64
	for i, d := range durs {
		if res.Assignment[i] == 0 {
			a = append(a, d)
		} else {
			b = append(b, d)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return []SubClass{subClassOf(durs)}
	}
	sa, sb := subClassOf(a), subClassOf(b)
	if sa.MeanDuration > sb.MeanDuration {
		sa, sb = sb, sa
	}
	// A split that does not separate scales is not useful; require the
	// long mean to be at least 3x the short mean.
	if sb.MeanDuration < 3*sa.MeanDuration {
		return []SubClass{subClassOf(durs)}
	}
	return []SubClass{sa, sb}
}

func subClassOf(durs []float64) SubClass {
	//harmony:allow errflow Max only errors on an empty slice; callers split non-empty duration sets
	mx, _ := stats.Max(durs)
	return SubClass{
		MeanDuration: stats.Mean(durs),
		SqCV:         stats.SquaredCV(durs),
		MaxDuration:  mx,
		Count:        len(durs),
	}
}

// logSizes returns t's position in the (log CPU, log Mem) space that
// clustering and labeling share. ok is false when either size is not in
// (0, +Inf): its log would be −Inf or NaN, which no distance survives.
// The point is an array, so labeling a task allocates nothing.
func logSizes(t *trace.Task) (p [2]float64, ok bool) {
	cpu, mem := t.CPU, t.Mem
	if !(cpu > 0 && mem > 0) || math.IsInf(cpu, 1) || math.IsInf(mem, 1) {
		return p, false
	}
	return [2]float64{math.Log(cpu), math.Log(mem)}, true
}

// Label assigns a task to its nearest class (Euclidean distance in
// (log CPU, log Mem) space, restricted to the task's priority group) and
// returns the class ID. It returns -1 when the group has no classes or
// the task's CPU or Mem is not in (0, +Inf).
func (ch *Characterization) Label(t trace.Task) int {
	ids := ch.byGroup[t.Group().Index()]
	p, ok := logSizes(&t)
	if len(ids) == 0 || !ok {
		return -1
	}
	best, bestD := -1, math.Inf(1)
	for _, id := range ids {
		c := &ch.Classes[id]
		d := 0.0
		for j := range p {
			diff := p[j] - c.logCentroid[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// TypeID identifies a (class, sub-class) pair — the unit the container
// manager provisions for. Sub 0 is short, 1 is long.
type TypeID struct {
	Class int
	Sub   int
}

// Labeler performs online task classification with the paper's
// label-short-first policy: a task is initially labeled with its class's
// short sub-class; once its observed running (or waiting) time exceeds the
// short sub-class's maximum duration it is relabeled long. Because most
// tasks are short, the initial mislabeling of long tasks is rare and
// short-lived (Section V).
type Labeler struct {
	ch *Characterization
	// base[c] is the position of class c's short sub-type in TaskTypes()
	// (its long sub-type, when it has one, follows at base[c]+1) and
	// ids[i] is the TypeID at position i: the dense task-type index every
	// consumer of TaskTypes() addresses its per-type arrays with.
	base []int
	ids  []TypeID
}

// NewLabeler returns a Labeler over a characterization.
func NewLabeler(ch *Characterization) *Labeler {
	l := &Labeler{ch: ch, base: make([]int, len(ch.Classes))}
	for i, tt := range ch.TaskTypes() {
		if tt.ID.Sub == 0 {
			l.base[tt.ID.Class] = i
		}
		l.ids = append(l.ids, tt.ID)
	}
	return l
}

// Initial labels a newly arrived task: nearest class, short sub-class.
// ok is false when Label finds no class for the task.
func (l *Labeler) Initial(t trace.Task) (TypeID, bool) {
	cls := l.ch.Label(t)
	if cls < 0 {
		return TypeID{}, false
	}
	return TypeID{Class: cls, Sub: 0}, true
}

// InitialIndex is Initial as an index into TaskTypes().
func (l *Labeler) InitialIndex(t trace.Task) (int, bool) {
	cls := l.ch.Label(t)
	if cls < 0 {
		return 0, false
	}
	return l.base[cls], true
}

// Refresh re-evaluates a task's label given its observed age (seconds since
// it started running). It upgrades short to long when the age exceeds the
// short sub-class boundary and the class has a long sub-class.
func (l *Labeler) Refresh(id TypeID, age float64) TypeID {
	if id.Class < 0 || id.Class >= len(l.ch.Classes) {
		return id
	}
	c := &l.ch.Classes[id.Class]
	if id.Sub != 0 || len(c.Sub) < 2 {
		return id
	}
	if age > c.Sub[0].MaxDuration {
		id.Sub = 1
	}
	return id
}

// RefreshIndex is Refresh over indices into TaskTypes(); an index outside
// the table is returned unchanged.
func (l *Labeler) RefreshIndex(idx int, age float64) int {
	if idx < 0 || idx >= len(l.ids) {
		return idx
	}
	next := l.Refresh(l.ids[idx], age)
	return l.base[next.Class] + next.Sub
}

// TaskType describes one provisionable task type (class × sub-class) with
// the statistics the queueing model needs.
type TaskType struct {
	ID           TypeID
	Group        trace.PriorityGroup
	CPU, Mem     float64 // centroid demand
	CPUStd       float64
	MemStd       float64
	CPUQuantiles [4]float64 // demand quantiles at QuantileProbs
	MemQuantiles [4]float64
	MeanDuration float64
	SqCV         float64
	Count        int
}

// TaskTypes flattens the characterization into the list of provisionable
// task types.
func (ch *Characterization) TaskTypes() []TaskType {
	var out []TaskType
	for i := range ch.Classes {
		c := &ch.Classes[i]
		for s, sub := range c.Sub {
			out = append(out, TaskType{
				ID:           TypeID{Class: c.ID, Sub: s},
				Group:        c.Group,
				CPU:          c.CPU,
				Mem:          c.Mem,
				CPUStd:       c.CPUStd,
				MemStd:       c.MemStd,
				CPUQuantiles: c.CPUQuantiles,
				MemQuantiles: c.MemQuantiles,
				MeanDuration: sub.MeanDuration,
				SqCV:         sub.SqCV,
				Count:        sub.Count,
			})
		}
	}
	return out
}
