// Package kmeans implements the K-means clustering algorithm with
// k-means++ seeding, Lloyd iterations, and the cluster-count selection
// heuristics used by HARMONY's task characterization (Section V of the
// paper): the workload is divided into task classes whose centroids later
// drive container sizing and runtime classification.
//
// The input is one flat buffer of (x0, x1) pairs: the characterization
// clusters (log CPU, log Mem) and then log duration as (x, 0). Tasks share
// their job's request and a job's tasks arrive together, so step one's
// pairs come as runs of one repeated shape (a 2 h trace at 3 tasks/s has
// 39,341 tasks in 2,839 runs of 2,582 distinct shapes). The kernel keeps
// the input as its maximal runs of one distinct point: seeding distances,
// the assignment pass and its bounds run once per distinct point. Lloyd's
// assignment pass also skips every distinct point whose distance bounds
// prove its centroid unchanged (Hamerly, "Making k-means even faster",
// SDM 2010).
//
// Three sums keep the input's order, since float addition is not
// associative and a duplicate adds at its own position: k-means++'s
// cumulative D², each moved centroid's re-sum, and the SSE. Each walks the
// runs and adds a run's value once per member into a local accumulator,
// the same additions in the same order; k-means++'s draw binary-searches
// the cumulative D² at each run's end. So results are bit-identical to
// plain Lloyd iterations over the same seeding; kmeans_oracle_test.go
// keeps that reference.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"harmony/internal/stats"
)

// Result holds the outcome of one clustering run.
type Result struct {
	Centroids  [][2]float64 // k centroids
	Assignment []int        // cluster index per input point
	SSE        float64      // sum of squared distances to assigned centroids
	Iterations int          // Lloyd iterations executed
}

// Config controls a clustering run.
type Config struct {
	K        int
	MaxIter  int   // Lloyd iteration cap (default 100)
	Seed     int64 // RNG seed for k-means++ initialization
	Restarts int   // independent restarts; best SSE wins (default 1)
}

var (
	// ErrNoPoints is returned when the input is empty.
	ErrNoPoints = errors.New("kmeans: no points")
	// ErrBadK is returned when K is out of range.
	ErrBadK = errors.New("kmeans: k must be in [1, len(points)]")
)

// Run clusters the points of xy, point i being (xy[2i], xy[2i+1]), into
// cfg.K clusters and returns the best result over cfg.Restarts independent
// k-means++ initializations.
func Run(xy []float64, cfg Config) (*Result, error) {
	n, err := numPoints(xy)
	if err != nil {
		return nil, err
	}
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, cfg.K, n)
	}
	ws := newWorkspace(xy, cfg.K)
	sse, iter := ws.run(cfg)
	return ws.result(cfg.K, ws.bestAssign, ws.bestCen, sse, iter), nil
}

// ChooseK runs Run for k = 1..maxK and returns the smallest k past the
// "elbow": the first k whose relative SSE improvement over k-1 drops below
// minGain (e.g. 0.1 for 10%). This mirrors the paper's "no significant
// benefit from increasing k" selection rule.
func ChooseK(xy []float64, maxK int, minGain float64, cfg Config) (int, *Result, error) {
	if maxK < 1 {
		return 0, nil, ErrBadK
	}
	n, err := numPoints(xy)
	if err != nil {
		return 0, nil, err
	}
	maxK = min(maxK, n)
	ws := newWorkspace(xy, maxK)
	// The previous k's best run, kept per distinct point until it is the
	// answer.
	var (
		prevSSE  float64
		prevIter int
		prevCen  = make([]float64, 2*maxK)
		prev     = make([]int, len(ws.assign))
	)
	for k := 1; k <= maxK; k++ {
		c := cfg
		c.K = k
		sse, iter := ws.run(c)
		if k > 1 {
			gain := 0.0
			if prevSSE > 0 {
				gain = (prevSSE - sse) / prevSSE
			}
			if gain < minGain {
				return k - 1, ws.result(k-1, prev, prevCen, prevSSE, prevIter), nil
			}
		}
		prevSSE, prevIter = sse, iter
		prev, ws.bestAssign = ws.bestAssign, prev
		copy(prevCen, ws.bestCen[:2*k])
	}
	return maxK, ws.result(maxK, prev, prevCen, prevSSE, prevIter), nil
}

// numPoints is the number of pairs in xy, which must hold at least one
// and fewer than 2³¹ (the kernel indexes them with int32).
func numPoints(xy []float64) (int, error) {
	switch n := len(xy) / 2; {
	case n == 0:
		return 0, ErrNoPoints
	case len(xy)%2 != 0:
		return 0, fmt.Errorf("kmeans: %d coordinates do not make pairs", len(xy))
	case n > math.MaxInt32:
		return 0, fmt.Errorf("kmeans: %d points, at most %d", n, math.MaxInt32)
	default:
		return n, nil
	}
}

// workspace is one point set in the kernel's layout plus every buffer a
// run needs, sized for up to maxK centroids and reused across restarts
// and (in ChooseK) across k. Centroid c is (cen[2c], cen[2c+1]).
type workspace struct {
	xy   []float64 // input point i is (xy[2i], xy[2i+1])
	pts  []float64 // distinct point j is (pts[2j], pts[2j+1]), by first occurrence
	runs []run     // the input's maximal runs of one distinct point, in order
	box  bbox      // the points' bounding box

	// Per distinct point.
	assign, bestAssign []int
	ub, lb             []float64 // distance bounds (see reassign)
	d2                 []float64 // squared distance to the nearest seed, then to its centroid

	cum []float64 // per run: k-means++'s cumulative D² at its last member

	cen, bestCen, sums []float64
	counts             []int
	dirty              []bool
	move, half         []float64 // per centroid: last move, half the gap to the nearest other
}

// run is n consecutive input points equal to distinct point pt.
type run struct{ pt, n int32 }

func newWorkspace(xy []float64, maxK int) *workspace {
	pts, runs := distinct(xy)
	m := len(pts) / 2
	// Seeding's cumulative sums are dead before lloyd's first pass sets
	// every bound, so they share one buffer.
	bounds := make([]float64, max(2*m, len(runs)))
	ws := &workspace{
		xy:         xy,
		pts:        pts,
		runs:       runs,
		assign:     make([]int, m),
		bestAssign: make([]int, m),
		ub:         bounds[:m:m],
		lb:         bounds[m : 2*m : 2*m],
		d2:         make([]float64, m),
		cum:        bounds[:len(runs)],
		cen:        make([]float64, 2*maxK),
		bestCen:    make([]float64, 2*maxK),
		sums:       make([]float64, 2*maxK),
		counts:     make([]int, maxK),
		dirty:      make([]bool, maxK),
		move:       make([]float64, maxK),
		half:       make([]float64, maxK),
	}
	ws.box = bbox{pts[0], pts[1], pts[0], pts[1]}
	for j := 0; j < m; j++ {
		ws.box.extend(pts[2*j], pts[2*j+1])
	}
	return ws
}

// distinct returns xy's distinct pairs in order of first occurrence and
// the input as maximal runs of one distinct pair. Pairs are equal when
// their bit patterns are: every distance the kernel computes from a pair
// depends on its bits alone, so bitwise duplicates are interchangeable
// and +0/−0 or NaNs with different payloads simply stay apart. A pair
// equal to the one before it extends that run; the first pair of a run is
// looked up in an open-addressing table of distinct pairs, sized by the
// number of runs.
func distinct(xy []float64) ([]float64, []run) {
	n := len(xy) / 2
	nRuns := 1
	for i := 2; i < len(xy); i += 2 {
		if math.Float64bits(xy[i]) != math.Float64bits(xy[i-2]) ||
			math.Float64bits(xy[i+1]) != math.Float64bits(xy[i-1]) {
			nRuns++
		}
	}
	bits := 1
	for 1<<bits < 2*nRuns {
		bits++
	}
	table := make([]int32, 1<<bits) // distinct index + 1; 0 is empty
	mask := len(table) - 1
	pts := make([]float64, 0, 2*nRuns)
	runs := make([]run, 0, nRuns)
	var p0, p1 uint64 // the previous pair's bits
	for i := 0; i < n; i++ {
		b0, b1 := math.Float64bits(xy[2*i]), math.Float64bits(xy[2*i+1])
		if i > 0 && b0 == p0 && b1 == p1 {
			runs[len(runs)-1].n++
			continue
		}
		p0, p1 = b0, b1
		for s := int(mix(mix(b0)^b1) >> (64 - bits)); ; s = (s + 1) & mask {
			j := int(table[s]) - 1
			if j < 0 {
				j = len(pts) / 2
				table[s] = int32(j) + 1
				pts = append(pts, xy[2*i], xy[2*i+1])
			} else if math.Float64bits(pts[2*j]) != b0 || math.Float64bits(pts[2*j+1]) != b1 {
				continue
			}
			runs = append(runs, run{int32(j), 1})
			break
		}
	}
	return pts, runs
}

// mix is SplitMix64's finalizer. A float's information sits in its high
// bits (a small integer's low 48 are zero), and mix spreads it over all 64.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// bbox is a bounding box: lo0, lo1, hi0, hi1.
type bbox [4]float64

// extend grows b to hold (x0, x1); a NaN coordinate makes it NaN.
func (b *bbox) extend(x0, x1 float64) {
	b[0], b[1] = min(b[0], x0), min(b[1], x1)
	b[2], b[3] = max(b[2], x0), max(b[3], x1)
}

func (b *bbox) diag() float64 {
	return dist(b[0], b[1], b[2], b[3])
}

// run is Run's restart loop on the workspace's points. It leaves the
// best restart's assignment in bestAssign and its centroids in bestCen,
// and returns its SSE and iterations.
func (ws *workspace) run(cfg Config) (float64, int) {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	k := cfg.K
	r := stats.NewRNG(cfg.Seed)
	var (
		bestSSE  float64
		bestIter int
	)
	for attempt := 0; attempt < cfg.Restarts; attempt++ {
		ws.seedPlusPlus(k, r)
		sse, iter := ws.lloyd(k, cfg.MaxIter)
		if attempt == 0 || sse < bestSSE {
			bestSSE, bestIter = sse, iter
			ws.assign, ws.bestAssign = ws.bestAssign, ws.assign
			copy(ws.bestCen, ws.cen[:2*k])
		}
	}
	return bestSSE, bestIter
}

// result is the Result of a k-cluster run whose per-distinct-point
// assignment is assign and whose centroids are cen.
func (ws *workspace) result(k int, assign []int, cen []float64, sse float64, iter int) *Result {
	res := &Result{
		Centroids:  make([][2]float64, k),
		Assignment: make([]int, len(ws.xy)/2),
		SSE:        sse,
		Iterations: iter,
	}
	i := 0
	for _, rn := range ws.runs {
		a := assign[rn.pt]
		for end := i + int(rn.n); i < end; i++ {
			res.Assignment[i] = a
		}
	}
	for c := range res.Centroids {
		res.Centroids[c] = [2]float64{cen[2*c], cen[2*c+1]}
	}
	return res
}

// seedPlusPlus picks k initial centroids into cen with the k-means++
// strategy: each next centroid is drawn with probability proportional to
// its squared distance from the nearest already-chosen centroid. The
// distances are computed per distinct point and their total walks the
// runs in input order, recording the cumulative sum at each run's end.
//
// The draw picks the first input point whose cumulative sum exceeds u, or
// the last point when none does. The sums are non-decreasing when the
// total is finite, so that point lies in the first run whose end sum
// exceeds u, and every member of a run is the same point. A NaN or +Inf
// total makes u NaN or +Inf, which no sum exceeds, as in the walk.
func (ws *workspace) seedPlusPlus(k int, r *stats.RNG) {
	xy, pts, runs, cen, d2, cum := ws.xy, ws.pts, ws.runs, ws.cen, ws.d2, ws.cum
	n := len(xy) / 2
	f := r.Intn(n)
	cen[0], cen[1] = xy[2*f], xy[2*f+1]
	for j := range d2 {
		d2[j] = dist2(pts[2*j], pts[2*j+1], cen[0], cen[1])
	}
	for c := 1; c < k; c++ {
		total := ws.runSum(d2, cum)
		var c0, c1 float64
		if total == 0 {
			// All points coincide with existing centroids; pick any.
			f := r.Intn(n)
			c0, c1 = xy[2*f], xy[2*f+1]
		} else {
			u := r.Float64() * total
			at := min(sort.Search(len(cum), func(i int) bool { return u < cum[i] }), len(runs)-1)
			j := runs[at].pt
			c0, c1 = pts[2*j], pts[2*j+1]
		}
		cen[2*c], cen[2*c+1] = c0, c1
		if c == k-1 {
			break // d2 is not read again
		}
		for j := range d2 {
			if d := dist2(pts[2*j], pts[2*j+1], c0, c1); d < d2[j] {
				d2[j] = d
			}
		}
	}
}

// runSum is the sum over the input points, in index order, of v at each
// one's distinct point. When cum is not nil it records the sum at each
// run's end.
func (ws *workspace) runSum(v, cum []float64) float64 {
	s := 0.0
	for r, rn := range ws.runs {
		x := v[rn.pt]
		s += x
		for t := int32(1); t < rn.n; t++ {
			s += x
		}
		if cum != nil {
			cum[r] = s
		}
	}
	return s
}

// lloyd runs Lloyd iterations from the k centroids in cen to convergence
// or maxIter, leaving the assignment in assign and the centroids in cen,
// and returns the SSE and the iterations executed.
//
// It returns what plain Lloyd iterations return, bit for bit: every
// centroid is the sum of its members in input index order over their
// count, and a point's centroid is the lowest-index argmin of the squared
// distances computed by dist2. Three shortcuts keep that:
//
//   - Bitwise duplicates get the same distances and so the same argmin:
//     the assignment is computed per distinct point.
//
//   - A centroid whose membership did not change in a pass is not
//     re-summed (update): the same members in the same order give the
//     same bits.
//
//   - A point is not scanned when Hamerly's bounds prove its centroid
//     strictly nearest (reassign).
func (ws *workspace) lloyd(k, maxIter int) (float64, int) {
	pts, cen, assign, d2 := ws.pts, ws.cen[:2*k], ws.assign, ws.d2
	dirty := ws.dirty[:k]
	for c := range dirty {
		dirty[c] = true // every cluster gains its first members
	}
	box := ws.box // the seeds are points, so they lie in it
	iter := 0
	for ; iter < maxIter; iter++ {
		if iter == 0 {
			for j := range assign {
				assign[j], ws.ub[j], ws.lb[j] = nearest(pts[2*j], pts[2*j+1], cen)
			}
		} else if !ws.reassign(k, pruneMargin(box.diag(), iter)) {
			break
		}
		ws.update(k, &box)
	}

	for j, c := range assign {
		d2[j] = dist2(pts[2*j], pts[2*j+1], cen[2*c], cen[2*c+1])
	}
	return ws.runSum(d2, nil), iter
}

// reassign is one assignment pass after the first, over the distinct
// points; it reports whether a point changed cluster and marks the
// clusters it left and joined dirty.
//
// After each pass ub[j] ≥ dist(point j, its centroid a) and lb[j] ≤
// dist(point j, any other centroid). A centroid's move m raises ub[j] by
// m when it is a and lowers lb[j] by the largest move among the others.
// half[a] is half the distance from a to its nearest other centroid, and
// a point closer than that to a is closer to a than to any other. So
// ub[j] + margin < max(lb[j], half[a]) proves a strictly nearest; when it
// does not, ub[j] is tightened to the computed distance and the test
// retried, and only then are all k centroids scanned (nearest).
//
// The margin covers the rounding of the bound arithmetic. Let L be the
// diagonal of the bounding box of the points and of every centroid so far
// (centroids are float means, so they can leave the points' box by
// rounding). Every distance the bounds track — point to centroid,
// centroid to centroid, a centroid's move — is at most L, so with
// u = 2⁻⁵³ each computed distance (dist) is within 3uL of
// the true one. A bound that passed a test is below 1.01L, so each update
// adds at most 5uL; after t passes the bounds are off by at most
// (5t+3)uL, half by 2uL and the test's sum by 2uL. A true gap g > 4uL
// between the assigned and any other distance orders their computed
// squares strictly, since a computed square carries relative error 4u. The
// margin 1e-9·(t+1)·L exceeds the sum of these for every t, so no cap on
// iterations is needed. Its 1e-100 floor keeps the squares of the gaps it
// proves clear of subnormal rounding. A diagonal above 1e150 (where
// squares could overflow to ties at +Inf), an infinite or a NaN one makes
// the margin +Inf: every test fails and every point is scanned. Below
// that every coordinate, distance and bound is finite, save lb = +Inf
// when k = 1, so no test sees a NaN.
func (ws *workspace) reassign(k int, margin float64) bool {
	pts, cen, assign, ub, lb := ws.pts, ws.cen[:2*k], ws.assign, ws.ub, ws.lb
	dirty, move, half := ws.dirty[:k], ws.move[:k], ws.half[:k]
	move1, move2, moved := topMoves(move)
	changed := false
	for j, a := range assign {
		u := ub[j] + move[a]
		l := lb[j] - move1
		if a == moved {
			l = lb[j] - move2
		}
		z := half[a]
		if l > z {
			z = l
		}
		if u+margin < z {
			ub[j], lb[j] = u, l
			continue
		}
		x0, x1 := pts[2*j], pts[2*j+1]
		u = dist(x0, x1, cen[2*a], cen[2*a+1])
		if u+margin < z {
			ub[j], lb[j] = u, l
			continue
		}
		var c int
		c, ub[j], lb[j] = nearest(x0, x1, cen)
		if c != a {
			assign[j] = c
			dirty[a], dirty[c] = true, true
			changed = true
		}
	}
	return changed
}

// update re-sums the dirty clusters in input index order and moves their
// centroids (an empty cluster keeps its position), then records every
// centroid's move and half-gap and grows box over the new centroids.
func (ws *workspace) update(k int, box *bbox) {
	cen, sums := ws.cen[:2*k], ws.sums[:2*k]
	counts, dirty, move, half := ws.counts[:k], ws.dirty[:k], ws.move[:k], ws.half[:k]
	for c, d := range dirty {
		if d {
			sums[2*c], sums[2*c+1], counts[c] = 0, 0, 0
		}
	}
	sumDirty(ws.runs, ws.pts, ws.assign, dirty, sums, counts)
	for c := range move {
		move[c] = 0
		if !dirty[c] {
			continue
		}
		dirty[c] = false
		if counts[c] == 0 {
			continue
		}
		n := float64(counts[c])
		c0, c1 := sums[2*c]/n, sums[2*c+1]/n
		move[c] = dist(cen[2*c], cen[2*c+1], c0, c1)
		cen[2*c], cen[2*c+1] = c0, c1
		box.extend(c0, c1)
	}
	for c := range half {
		half[c] = math.Inf(1)
	}
	for c := 0; c < k; c++ {
		for o := c + 1; o < k; o++ {
			h := 0.5 * dist(cen[2*c], cen[2*c+1], cen[2*o], cen[2*o+1])
			half[c], half[o] = min(half[c], h), min(half[o], h)
		}
	}
}

// sumDirty adds the point of each run whose cluster is dirty to that
// cluster's sums, once per member and in input order, and the run's
// length to its count.
func sumDirty(runs []run, pts []float64, assign []int, dirty []bool, sums []float64, counts []int) {
	for _, rn := range runs {
		c := assign[rn.pt]
		if !dirty[c] {
			continue
		}
		x0, x1 := pts[2*rn.pt], pts[2*rn.pt+1]
		s0, s1 := sums[2*c]+x0, sums[2*c+1]+x1
		for t := int32(1); t < rn.n; t++ {
			s0 += x0
			s1 += x1
		}
		sums[2*c], sums[2*c+1] = s0, s1
		counts[c] += int(rn.n)
	}
}

// nearest scans every centroid in index order and returns the first with
// the least squared distance from (x0, x1), that distance's root and the
// root of the least squared distance to any other centroid.
func nearest(x0, x1 float64, cen []float64) (int, float64, float64) {
	best, bestD, second := 0, math.Inf(1), math.Inf(1)
	for c := 0; c < len(cen)/2; c++ {
		d := dist2(x0, x1, cen[2*c], cen[2*c+1])
		if d < bestD {
			best, bestD, second = c, d, bestD
		} else if d < second {
			second = d
		}
	}
	return best, root(bestD), root(second)
}

// topMoves returns the largest and second-largest centroid moves and the
// index of the largest (-1 when none moved).
func topMoves(move []float64) (float64, float64, int) {
	m1, m2, at := 0.0, 0.0, -1
	for c, m := range move {
		if m > m1 {
			m1, m2, at = m, m1, c
		} else if m > m2 {
			m2 = m
		}
	}
	return m1, m2, at
}

// pruneMargin is the gap by which reassign's bounds must prove a
// centroid nearest after iter passes in a box of diagonal diag
// (reassign's comment has the argument); +Inf turns pruning off.
func pruneMargin(diag float64, iter int) float64 {
	if !(diag <= 1e150) {
		return math.Inf(1)
	}
	return 1e-9*float64(iter+1)*diag + 1e-100
}

// dist is the distance between (a0, a1) and (b0, b1).
func dist(a0, a1, b0, b1 float64) float64 {
	return root(dist2(a0, a1, b0, b1))
}

// root is the distance whose square dist2 returned: math.Sqrt of a sum
// of squares, or the NaN such a sum can be.
func root(s float64) float64 {
	if s >= 0 {
		return math.Sqrt(s)
	}
	return s
}

// dist2 is the squared distance between (a0, a1) and (b0, b1), summed
// in the order a coordinate-wise loop sums it; a 1-D point's zero second
// coordinate adds exactly +0.
func dist2(a0, a1, b0, b1 float64) float64 {
	d0, d1 := a0-b0, a1-b1
	s := 0.0
	s += d0 * d0
	s += d1 * d1
	return s
}
