package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"harmony/internal/stats"
	"harmony/internal/trace"
)

// TestLloydMatchesBruteForce pins the pruned kernel to the reference
// below, bit for bit, on the inputs where a pruning, re-summing or
// deduplicating slip would show: exact bisector ties, coincident points
// and empty clusters, k = n, a hit iteration cap, tiny and huge scales, a
// tie that only the bounds' margin exposes, squares that overflow and
// non-finite coordinates (no pruning at all), heavy repetition and none,
// +0 next to −0 and repeated NaNs (bitwise-distinct keys that compare
// equal, equal keys that compare unequal), 1-D and 2-D points, and the
// characterization's own step-one groups and step-two duration splits on
// a generated trace.
func TestLloydMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	lattice := make([]point, 0, 60)
	for i := 0; i < 60; i++ {
		lattice = append(lattice, point{float64(r.Intn(6)), float64(r.Intn(6))})
	}
	lattice1 := make([]point, 0, 40)
	for i := 0; i < 40; i++ {
		lattice1 = append(lattice1, point{float64(r.Intn(5))})
	}
	equal := make([]point, 12)
	for i := range equal {
		equal[i] = point{2.5, -1}
	}
	dups := make([]point, 0, 45)
	for i := 0; i < 45; i++ {
		dups = append(dups, point{float64(i % 3), 0.5 * float64(i%3)})
	}
	distinct := []point{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {3, 3}, {-2, 5}, {0.5, 0.5}}
	blobs := threeBlobs(r, 200, []point{{0, 0}, {4, 4}, {0, 4}}, 1.2)
	scaled := func(pts []point, f float64) []point {
		out := make([]point, len(pts))
		for i, p := range pts {
			out[i] = point{p[0] * f, p[1] * f}
		}
		return out
	}
	blobs1 := threeBlobs(r, 150, []point{{0}, {3}, {5}}, 1)
	// 5,000 draws over 7 shapes, as tasks repeat their job's request.
	shapes := threeBlobs(r, 7, []point{{-4, -3}}, 1.5)
	shapes1 := threeBlobs(r, 7, []point{{2}}, 2)
	var repeated, repeated1 []point
	for i := 0; i < 5000; i++ {
		repeated = append(repeated, shapes[r.Intn(len(shapes))])
		repeated1 = append(repeated1, shapes1[r.Intn(len(shapes1))])
	}
	spread := threeBlobs(r, 400, []point{{0, 0}, {1, 3}}, 1)
	spread1 := threeBlobs(r, 1000, []point{{1}, {4}}, 1)
	negZero := math.Copysign(0, -1)
	zeros := []float64{0, negZero, 1, -1}
	var signedZeros, signedZeros1 []point
	for i := 0; i < 48; i++ {
		signedZeros = append(signedZeros, point{zeros[r.Intn(4)], zeros[r.Intn(4)]})
		signedZeros1 = append(signedZeros1, point{zeros[r.Intn(4)]})
	}
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	var nans []point
	for i := 0; i < 40; i++ {
		switch i % 5 {
		case 0:
			nans = append(nans, point{math.NaN(), 1})
		case 1:
			nans = append(nans, point{2, math.NaN()})
		case 2:
			nans = append(nans, point{otherNaN, 1})
		default:
			nans = append(nans, point{float64(r.Intn(4)), float64(r.Intn(4))})
		}
	}
	// Seeded (8,8) then (-7,-7), the first update moves the centroids to
	// (1,1) and (-1,-1), so a (0,0) in cluster 1 ties exactly between
	// them and the reference moves it to cluster 0. Its lower bound on the
	// distance to cluster 0 is √128 − √98, which rounds above √2: only
	// the margin makes the bound test fail and the tie reach the scan.
	roundedTie := []point{{8, 8}, {1, 1}, {-7, -7}}
	for i := 0; i < 7; i++ {
		roundedTie = append(roundedTie, point{1, 0}, point{0, 1})
	}
	for i := 0; i < 6; i++ {
		roundedTie = append(roundedTie, point{0, 0})
	}
	const tieSeed = 617
	if s := seedPlusPlus(roundedTie, 2, stats.NewRNG(tieSeed)); s[0][0] != 8 || s[1][0] != -7 {
		t.Fatalf("seed %d now draws %v; pick one that draws (8,8) then (-7,-7)", tieSeed, s)
	}
	// Coordinates whose squares overflow (1e155, 1e200, 1e300), next to
	// ones that do not, and non-finite ones: the margin is infinite and
	// distances tie at +Inf, so a bound test that passes on equality
	// skips a point the reference moves to cluster 0.
	var extreme, nonFinite []point
	big := []float64{0, 1, -1, 2, 1e154, -1e154, 1.3e154, 1e155, -1e155, 1e200, 1e300, -1e300}
	for i := 0; i < 30; i++ {
		extreme = append(extreme, point{big[r.Intn(len(big))]})
		nonFinite = append(nonFinite, point{big[r.Intn(len(big))], big[r.Intn(len(big))]})
	}
	nonFinite[3][0], nonFinite[7][1], nonFinite[11] = math.Inf(1), math.Inf(-1), point{math.NaN(), 0}

	cases := []struct {
		name  string
		pts   []point
		ks    []int
		cfg   Config
		seeds []int64 // default 0..3
	}{
		{"lattice", lattice, []int{1, 2, 3, 5, 8, 13}, Config{Restarts: 3}, nil},
		{"lattice 1-D", lattice1, []int{1, 2, 3, 4, 6}, Config{Restarts: 3}, nil},
		{"all equal", equal, []int{1, 3, 12}, Config{Restarts: 2}, nil},
		{"duplicate seeds", dups, []int{2, 3, 4, 7}, Config{Restarts: 4}, nil},
		{"k = n", distinct, []int{len(distinct)}, Config{Restarts: 2}, nil},
		{"k = n duplicates", dups[:6], []int{6}, Config{Restarts: 2}, nil},
		{"max iter 1", blobs, []int{3, 7}, Config{MaxIter: 1}, nil},
		{"max iter 2", blobs, []int{3, 7}, Config{MaxIter: 2, Restarts: 2}, nil},
		{"blobs", blobs, []int{1, 2, 3, 4, 6, 9, 12}, Config{Restarts: 4}, nil},
		{"blobs 1e-6", scaled(blobs, 1e-6), []int{2, 5, 12}, Config{Restarts: 4}, nil},
		{"blobs 1e6", scaled(blobs, 1e6), []int{2, 5, 12}, Config{Restarts: 4}, nil},
		{"blobs 1-D", blobs1, []int{1, 2, 3, 6}, Config{Restarts: 4}, nil},
		{"rounded tie", roundedTie, []int{2}, Config{}, []int64{tieSeed}},
		{"extreme", extreme, []int{2, 3, 4, 6}, Config{Restarts: 3}, []int64{0, 1, 2, 3, 4, 5, 6, 7}},
		{"non-finite", nonFinite, []int{2, 3, 4, 6}, Config{Restarts: 3}, []int64{0, 1, 2, 3, 4, 5, 6, 7}},
		{"7 shapes", repeated, []int{1, 2, 3, 5, 7, 9}, Config{Restarts: 4}, nil},
		{"7 shapes 1-D", repeated1, []int{1, 2, 4, 7, 9}, Config{Restarts: 4}, nil},
		{"all distinct", spread, []int{1, 2, 5, 12}, Config{Restarts: 4}, nil},
		{"all distinct 1-D", spread1, []int{2, 3}, Config{Restarts: 4}, nil},
		{"signed zeros", signedZeros, []int{1, 2, 3, 5}, Config{Restarts: 3}, []int64{0, 1, 2, 3, 4, 5, 6, 7}},
		{"signed zeros 1-D", signedZeros1, []int{1, 2, 3}, Config{Restarts: 3}, []int64{0, 1, 2, 3, 4, 5, 6, 7}},
		{"repeated NaN", nans, []int{1, 2, 3, 5}, Config{Restarts: 3}, []int64{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	for _, tc := range cases {
		if tc.seeds == nil {
			tc.seeds = []int64{0, 1, 2, 3}
		}
		for _, k := range tc.ks {
			for _, seed := range tc.seeds {
				cfg := tc.cfg
				cfg.K, cfg.Seed = k, seed
				got, err := Run(flat(tc.pts), cfg)
				if err != nil {
					t.Fatalf("%s k=%d: %v", tc.name, k, err)
				}
				requireSameResult(t, tc.name, got, runRef(tc.pts, cfg))
			}
		}
	}

	// Step one's per-group (log CPU, log Mem) points of a generated 2 h
	// trace, through ChooseK as classify calls it, and step two's 1-D k = 2
	// split of each class's log durations.
	gen := trace.DefaultConfig(1)
	gen.Horizon = 2 * trace.Hour
	gen.RatePerS = 1
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var pts, durs [trace.NumGroups][]point
	for _, task := range tr.Tasks {
		g := task.Group().Index()
		pts[g] = append(pts[g], point{math.Log(task.CPU), math.Log(task.Mem)})
		durs[g] = append(durs[g], point{math.Log(task.Duration)})
	}
	for g := range pts {
		cfg := Config{Seed: 1 + int64(g), Restarts: 4}
		k, got, err := ChooseK(flat(pts[g]), 12, 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantK, want := chooseKRef(pts[g], 12, 0.05, cfg)
		if k != wantK {
			t.Fatalf("group %d: ChooseK k = %d, reference %d", g, k, wantK)
		}
		requireSameResult(t, "trace group", got, want)
		members := make([][]point, k)
		for i, c := range got.Assignment {
			members[c] = append(members[c], durs[g][i])
		}
		for _, m := range members {
			if len(m) < 2 {
				continue
			}
			cfg := Config{K: 2, Seed: 1, Restarts: 4}
			got, err := Run(flat(m), cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "trace durations", got, runRef(m, cfg))
		}
	}
}

// FuzzLloydMatchesBruteForce decodes up to 64 lattice points (so ties and
// repeats are common) of dimension 1 or 2, k, a seed, an iteration cap, a
// restart count and a scale (1e155 makes squares overflow), and requires
// Run to match the reference bit for bit. The first byte also picks a
// special value: a coordinate byte in [7, 14) mod 14 becomes −0 where it
// would be 0 (mode 1) or NaN (mode 2).
func FuzzLloydMatchesBruteForce(f *testing.F) {
	f.Add([]byte{1, 3, 7, 0, 2, 0, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 6, 6, 5, 5, 1, 1})
	f.Add([]byte{0, 4, 1, 1, 0, 2, 3, 3, 3, 3, 0, 0, 6, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		dim, mode := 1+int(data[0]%2), data[0]/2%3
		scale := [...]float64{1, 0.5, 1e-6, 1e6, 1e155}[data[5]%5]
		coords := data[6:]
		n := min(64, len(coords)/dim)
		if n == 0 {
			return
		}
		pts := make([]point, n)
		for i := range pts {
			pts[i] = make(point, dim)
			for d := range pts[i] {
				b := coords[i*dim+d]
				v := scale * float64(int(b%7)-3)
				switch special := b%14 >= 7; {
				case special && mode == 1 && v == 0:
					v = math.Copysign(0, -1)
				case special && mode == 2:
					v = math.NaN()
				}
				pts[i][d] = v
			}
		}
		cfg := Config{
			K:        1 + int(data[1])%n,
			Seed:     int64(data[2]),
			MaxIter:  int(data[3] % 5), // 0 is the default cap
			Restarts: 1 + int(data[4]%3),
		}
		got, err := Run(flat(pts), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "fuzz", got, runRef(pts, cfg))
	})
}

// requireSameResult fails unless got and want agree in every bit, a 1-D
// reference centroid x standing for (x, +0). Any two NaNs agree: which
// operand's payload a NaN carries is the hardware's and the register
// allocator's choice, not the algorithm's.
func requireSameResult(t *testing.T, name string, got *Result, want *refResult) {
	t.Helper()
	if got.Iterations != want.Iterations || !sameBits(got.SSE, want.SSE) {
		t.Fatalf("%s: iterations %d, SSE %v; reference %d, %v", name, got.Iterations, got.SSE, want.Iterations, want.SSE)
	}
	if len(got.Centroids) != len(want.Centroids) || len(got.Assignment) != len(want.Assignment) {
		t.Fatalf("%s: %d centroids, %d assignments; reference %d, %d",
			name, len(got.Centroids), len(got.Assignment), len(want.Centroids), len(want.Assignment))
	}
	for c, p := range got.Centroids {
		w := [2]float64{}
		copy(w[:], want.Centroids[c])
		if !sameBits(p[0], w[0]) || !sameBits(p[1], w[1]) {
			t.Fatalf("%s: centroid %d = %v, reference %v", name, c, p, want.Centroids[c])
		}
	}
	for i, c := range got.Assignment {
		if c != want.Assignment[i] {
			t.Fatalf("%s: point %d in cluster %d, reference %d", name, i, c, want.Assignment[i])
		}
	}
}

func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// The reference implementation the production kernel must match bit for
// bit: plain Lloyd iterations (every point scans every centroid, every
// centroid is re-summed each iteration) behind the same k-means++
// seeding, over every input point of its own dimension. runRef and
// chooseKRef are Run and ChooseK on top of it.

// refResult is Result with the points' own dimension.
type refResult struct {
	Centroids  []point
	Assignment []int
	SSE        float64
	Iterations int
}

// runRef is Run over the reference seeding and Lloyd loop.
func runRef(points []point, cfg Config) *refResult {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	r := stats.NewRNG(cfg.Seed)
	var best *refResult
	for attempt := 0; attempt < cfg.Restarts; attempt++ {
		res := lloyd(points, seedPlusPlus(points, cfg.K, r), cfg.MaxIter)
		if best == nil || res.SSE < best.SSE {
			best = res
		}
	}
	return best
}

// chooseKRef is ChooseK over runRef.
func chooseKRef(points []point, maxK int, minGain float64, cfg Config) (int, *refResult) {
	if maxK > len(points) {
		maxK = len(points)
	}
	var (
		prevSSE float64
		prevRes *refResult
	)
	for k := 1; k <= maxK; k++ {
		c := cfg
		c.K = k
		res := runRef(points, c)
		if k > 1 {
			gain := 0.0
			if prevSSE > 0 {
				gain = (prevSSE - res.SSE) / prevSSE
			}
			if gain < minGain {
				return k - 1, prevRes
			}
		}
		prevSSE, prevRes = res.SSE, res
	}
	return maxK, prevRes
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy:
// each next centroid is drawn with probability proportional to its squared
// distance from the nearest already-chosen centroid.
func seedPlusPlus(points []point, k int, r *stats.RNG) []point {
	centroids := make([]point, 0, k)
	first := points[r.Intn(len(points))]
	centroids = append(centroids, clonePoint(first))

	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var next point
		if total == 0 {
			// All points coincide with existing centroids; pick any.
			next = points[r.Intn(len(points))]
		} else {
			u := r.Float64() * total
			acc := 0.0
			idx := len(points) - 1
			for i, d := range d2 {
				acc += d
				if u < acc {
					idx = i
					break
				}
			}
			next = points[idx]
		}
		centroids = append(centroids, clonePoint(next))
		for i, p := range points {
			if d := sqDist(p, next); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// lloyd runs standard Lloyd iterations to convergence or maxIter.
func lloyd(points []point, centroids []point, maxIter int) *refResult {
	k := len(centroids)
	dim := len(points[0])
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed {
			break
		}
		// Recompute centroids; empty clusters keep their position.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}

	sse := 0.0
	for i, p := range points {
		sse += sqDist(p, centroids[assign[i]])
	}
	return &refResult{
		Centroids:  centroids,
		Assignment: assign,
		SSE:        sse,
		Iterations: iter,
	}
}

func sqDist(a, b point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clonePoint(p point) point {
	q := make(point, len(p))
	copy(q, p)
	return q
}
