// Package kmeans implements the K-means clustering algorithm with
// k-means++ seeding, Lloyd iterations, and the cluster-count selection
// heuristics used by HARMONY's task characterization (Section V of the
// paper): the workload is divided into task classes whose centroids later
// drive container sizing and runtime classification.
//
// Points have one or two dimensions (the characterization clusters
// (log CPU, log Mem) and then log duration). They are copied once into a
// flat buffer of (x0, x1) pairs, a 1-D point being (x, 0), and Lloyd's
// assignment pass skips every point whose distance bounds prove its
// centroid unchanged (Hamerly, "Making k-means even faster", SDM 2010).
// Results are bit-identical to plain Lloyd iterations over the same
// seeding; kmeans_oracle_test.go keeps that reference.
package kmeans

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/stats"
)

// Point is a feature vector.
type Point []float64

// Result holds the outcome of one clustering run.
type Result struct {
	Centroids  []Point // k centroids
	Assignment []int   // cluster index per input point
	SSE        float64 // sum of squared distances to assigned centroids
	Iterations int     // Lloyd iterations executed
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
	// ErrDimMismatch is returned when points have differing dimensions.
	ErrDimMismatch = errors.New("kmeans: inconsistent point dimensions")
)

// Run clusters points into cfg.K clusters and returns the best result over
// cfg.Restarts independent k-means++ initializations. Points must have one
// or two dimensions.
func Run(points []Point, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if cfg.K < 1 || cfg.K > len(points) {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, cfg.K, len(points))
	}
	ws, err := newWorkspace(points, cfg.K)
	if err != nil {
		return nil, err
	}
	return ws.run(cfg), nil
}

// ChooseK runs Run for k = 1..maxK and returns the smallest k past the
// "elbow": the first k whose relative SSE improvement over k-1 drops below
// minGain (e.g. 0.1 for 10%). This mirrors the paper's "no significant
// benefit from increasing k" selection rule.
func ChooseK(points []Point, maxK int, minGain float64, cfg Config) (int, *Result, error) {
	if maxK < 1 {
		return 0, nil, ErrBadK
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	if maxK == 0 {
		return 0, nil, nil
	}
	ws, err := newWorkspace(points, maxK)
	if err != nil {
		return 0, nil, err
	}
	var (
		prevSSE float64
		prevRes *Result
	)
	for k := 1; k <= maxK; k++ {
		c := cfg
		c.K = k
		res := ws.run(c)
		if k > 1 {
			gain := 0.0
			if prevSSE > 0 {
				gain = (prevSSE - res.SSE) / prevSSE
			}
			if gain < minGain {
				return k - 1, prevRes, nil
			}
		}
		prevSSE, prevRes = res.SSE, res
	}
	return maxK, prevRes, nil
}

// workspace is one point set in the kernel's layout plus every buffer a
// run needs, sized for up to maxK centroids and reused across restarts
// and (in ChooseK) across k. Centroid c is (cen[2c], cen[2c+1]).
type workspace struct {
	dim int
	xy  []float64 // point i is (xy[2i], xy[2i+1])
	box bbox      // the points' bounding box

	assign, bestAssign []int
	ub, lb             []float64 // per point: distance bounds (see reassign)
	d2                 []float64 // seeding: squared distance to the nearest seed

	cen, bestCen, sums []float64
	counts             []int
	dirty              []bool
	move, half         []float64 // per centroid: last move, half the gap to the nearest other
}

func newWorkspace(points []Point, maxK int) (*workspace, error) {
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, ErrDimMismatch
		}
	}
	if dim < 1 || dim > 2 {
		return nil, fmt.Errorf("kmeans: %d-dimensional points, want 1 or 2", dim)
	}
	n := len(points)
	ws := &workspace{
		dim:        dim,
		xy:         make([]float64, 2*n),
		assign:     make([]int, n),
		bestAssign: make([]int, n),
		ub:         make([]float64, n),
		lb:         make([]float64, n),
		d2:         make([]float64, n),
		cen:        make([]float64, 2*maxK),
		bestCen:    make([]float64, 2*maxK),
		sums:       make([]float64, 2*maxK),
		counts:     make([]int, maxK),
		dirty:      make([]bool, maxK),
		move:       make([]float64, maxK),
		half:       make([]float64, maxK),
	}
	for i, p := range points {
		copy(ws.xy[2*i:2*i+2], p)
	}
	ws.box = bbox{ws.xy[0], ws.xy[1], ws.xy[0], ws.xy[1]}
	for i := 0; i < n; i++ {
		ws.box.extend(ws.xy[2*i], ws.xy[2*i+1])
	}
	return ws, nil
}

// bbox is a bounding box: lo0, lo1, hi0, hi1.
type bbox [4]float64

// extend grows b to hold (x0, x1); a NaN coordinate makes it NaN.
func (b *bbox) extend(x0, x1 float64) {
	b[0], b[1] = math.Min(b[0], x0), math.Min(b[1], x1)
	b[2], b[3] = math.Max(b[2], x0), math.Max(b[3], x1)
}

func (b *bbox) diag() float64 {
	return dist(b[0], b[1], b[2], b[3])
}

// run is Run's restart loop on the workspace's points.
func (ws *workspace) run(cfg Config) *Result {
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
	res := &Result{
		Centroids:  make([]Point, k),
		Assignment: append([]int(nil), ws.bestAssign...),
		SSE:        bestSSE,
		Iterations: bestIter,
	}
	for c := range res.Centroids {
		res.Centroids[c] = append(Point(nil), ws.bestCen[2*c:2*c+ws.dim]...)
	}
	return res
}

// seedPlusPlus picks k initial centroids into cen with the k-means++
// strategy: each next centroid is drawn with probability proportional to
// its squared distance from the nearest already-chosen centroid.
func (ws *workspace) seedPlusPlus(k int, r *stats.RNG) {
	xy, cen, d2 := ws.xy, ws.cen, ws.d2
	n := len(d2)
	f := r.Intn(n)
	cen[0], cen[1] = xy[2*f], xy[2*f+1]
	total := 0.0
	for i := range d2 {
		d2[i] = dist2(xy[2*i], xy[2*i+1], cen[0], cen[1])
		total += d2[i]
	}
	for c := 1; c < k; c++ {
		idx := n - 1
		if total == 0 {
			// All points coincide with existing centroids; pick any.
			idx = r.Intn(n)
		} else {
			u := r.Float64() * total
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if u < acc {
					idx = i
					break
				}
			}
		}
		c0, c1 := xy[2*idx], xy[2*idx+1]
		cen[2*c], cen[2*c+1] = c0, c1
		if c == k-1 {
			break // d2 is not read again
		}
		total = 0
		for i := range d2 {
			if d := dist2(xy[2*i], xy[2*i+1], c0, c1); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
	}
}

// lloyd runs Lloyd iterations from the k centroids in cen to convergence
// or maxIter, leaving the assignment in assign and the centroids in cen,
// and returns the SSE and the iterations executed.
//
// It returns what plain Lloyd iterations return, bit for bit: every
// centroid is the sum of its members in index order over their count,
// and a point's centroid is the lowest-index argmin of the squared
// distances computed by dist2. Two shortcuts keep that:
//
//   - A centroid whose membership did not change in a pass is not
//     re-summed (update): the same members in the same order give the
//     same bits.
//
//   - A point is not scanned when Hamerly's bounds prove its centroid
//     strictly nearest (reassign).
func (ws *workspace) lloyd(k, maxIter int) (float64, int) {
	xy, cen, assign := ws.xy, ws.cen[:2*k], ws.assign
	dirty := ws.dirty[:k]
	for c := range dirty {
		dirty[c] = true // every cluster gains its first members
	}
	box := ws.box // the seeds are points, so they lie in it
	iter := 0
	for ; iter < maxIter; iter++ {
		if iter == 0 {
			for i := range assign {
				assign[i], ws.ub[i], ws.lb[i] = nearest(xy[2*i], xy[2*i+1], cen)
			}
		} else if !ws.reassign(k, pruneMargin(box.diag(), iter)) {
			break
		}
		ws.update(k, &box)
	}

	sse := 0.0
	for i, c := range assign {
		sse += dist2(xy[2*i], xy[2*i+1], cen[2*c], cen[2*c+1])
	}
	return sse, iter
}

// reassign is one assignment pass after the first; it reports whether a
// point changed cluster and marks the clusters it left and joined dirty.
//
// After each pass ub[i] ≥ dist(point i, its centroid a) and lb[i] ≤
// dist(point i, any other centroid). A centroid's move m raises ub[i] by
// m when it is a and lowers lb[i] by the largest move among the others.
// half[a] is half the distance from a to its nearest other centroid, and
// a point closer than that to a is closer to a than to any other. So
// ub[i] + margin < max(lb[i], half[a]) proves a strictly nearest; when it
// does not, ub[i] is tightened to the computed distance and the test
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
	xy, cen, assign, ub, lb := ws.xy, ws.cen[:2*k], ws.assign, ws.ub, ws.lb
	dirty, move, half := ws.dirty[:k], ws.move[:k], ws.half[:k]
	move1, move2, moved := topMoves(move)
	changed := false
	for i, a := range assign {
		u := ub[i] + move[a]
		l := lb[i] - move1
		if a == moved {
			l = lb[i] - move2
		}
		z := half[a]
		if l > z {
			z = l
		}
		if u+margin < z {
			ub[i], lb[i] = u, l
			continue
		}
		x0, x1 := xy[2*i], xy[2*i+1]
		u = dist(x0, x1, cen[2*a], cen[2*a+1])
		if u+margin < z {
			ub[i], lb[i] = u, l
			continue
		}
		var c int
		c, ub[i], lb[i] = nearest(x0, x1, cen)
		if c != a {
			assign[i] = c
			dirty[a], dirty[c] = true, true
			changed = true
		}
	}
	return changed
}

// update re-sums the dirty clusters in point index order and moves their
// centroids (an empty cluster keeps its position), then records every
// centroid's move and half-gap and grows box over the new centroids.
func (ws *workspace) update(k int, box *bbox) {
	xy, cen, sums := ws.xy, ws.cen[:2*k], ws.sums[:2*k]
	counts, dirty, move, half := ws.counts[:k], ws.dirty[:k], ws.move[:k], ws.half[:k]
	for c, d := range dirty {
		if d {
			sums[2*c], sums[2*c+1], counts[c] = 0, 0, 0
		}
	}
	for i, c := range ws.assign {
		if dirty[c] {
			counts[c]++
			sums[2*c] += xy[2*i]
			sums[2*c+1] += xy[2*i+1]
		}
	}
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
// in the order the Point-wise loop sums it; a 1-D point's zero second
// coordinate adds exactly +0.
func dist2(a0, a1, b0, b1 float64) float64 {
	d0, d1 := a0-b0, a1-b1
	s := 0.0
	s += d0 * d0
	s += d1 * d1
	return s
}
