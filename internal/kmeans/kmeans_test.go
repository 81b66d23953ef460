package kmeans

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// point is a test input of one or two coordinates; flat lays a set of
// them out as Run takes them, a 1-D point as (x, 0).
type point []float64

func flat(pts []point) []float64 {
	xy := make([]float64, 0, 2*len(pts))
	for _, p := range pts {
		x1 := 0.0
		if len(p) == 2 {
			x1 = p[1]
		}
		xy = append(xy, p[0], x1)
	}
	return xy
}

// threeBlobs returns well-separated gaussian blobs around the given centers.
func threeBlobs(r *rand.Rand, perBlob int, centers []point, sigma float64) []point {
	var pts []point
	for _, c := range centers {
		for i := 0; i < perBlob; i++ {
			p := make(point, len(c))
			for d := range c {
				p[d] = c[d] + sigma*r.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// nearestSq returns the squared distance from p to its closest centroid.
func nearestSq(centroids [][2]float64, p point) float64 {
	best := math.Inf(1)
	for _, cen := range centroids {
		best = math.Min(best, sqDist(p, cen[:len(p)]))
	}
	return best
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Error("empty input accepted")
	}
	pts := []float64{1, 0, 2, 0}
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(pts, Config{K: 3}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Run([]float64{1, 0, 2}, Config{K: 1}); err == nil {
		t.Error("odd-length buffer accepted")
	}
	if _, _, err := ChooseK([]float64{1}, 2, 0.1, Config{}); err == nil {
		t.Error("odd-length buffer accepted by ChooseK")
	}
}

func TestRunRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	centers := []point{{0, 0}, {10, 10}, {0, 10}}
	pts := threeBlobs(r, 100, centers, 0.5)
	res, err := Run(flat(pts), Config{K: 3, Seed: 7, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Each true center should have a recovered centroid within 1.0.
	for _, c := range centers {
		if d := math.Sqrt(nearestSq(res.Centroids, c)); d > 1.0 {
			t.Errorf("no centroid near %v (closest at distance %v)", c, d)
		}
	}
	sizes := make([]int, len(res.Centroids))
	for _, c := range res.Assignment {
		sizes[c]++
	}
	for i, s := range sizes {
		if s < 80 || s > 120 {
			t.Errorf("cluster %d size = %d, want ~100", i, s)
		}
	}
}

func TestRunK1CentroidIsMean(t *testing.T) {
	res, err := Run([]float64{0, 0, 2, 4, 4, 2}, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-2) > 1e-9 || math.Abs(res.Centroids[0][1]-2) > 1e-9 {
		t.Errorf("centroid = %v, want [2 2]", res.Centroids[0])
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	res, err := Run([]float64{1, 1, 1, 1, 1, 1}, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE != 0 {
		t.Errorf("SSE = %v, want 0", res.SSE)
	}
}

// Property: at convergence every point is assigned to its nearest centroid,
// and SSE matches a direct recomputation.
func TestRunAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(80)
		pts := make([]point, n)
		for i := range pts {
			pts[i] = point{r.Float64() * 10, r.Float64() * 10}
		}
		k := 1 + r.Intn(4)
		res, err := Run(flat(pts), Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		sse := 0.0
		for i, p := range pts {
			bd := nearestSq(res.Centroids, p)
			ad := sqDist(p, res.Centroids[res.Assignment[i]][:])
			if ad > bd+1e-9 {
				return false
			}
			sse += ad
		}
		return math.Abs(sse-res.SSE) < 1e-6*(1+sse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: SSE is non-increasing in k (with enough restarts).
func TestSSEDecreasesWithK(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := flat(threeBlobs(r, 60, []point{{0, 0}, {5, 5}, {10, 0}}, 1.0))
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		res, err := Run(pts, Config{K: k, Seed: 11, Restarts: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.SSE > prev*1.001 {
			t.Errorf("SSE increased at k=%d: %v > %v", k, res.SSE, prev)
		}
		prev = res.SSE
	}
}

func TestChooseK(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := flat(threeBlobs(r, 80, []point{{0, 0}, {20, 0}, {0, 20}}, 0.5))
	k, res, err := ChooseK(pts, 8, 0.3, Config{Seed: 13, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("ChooseK = %d, want 3", k)
	}
	if len(res.Centroids) != k {
		t.Errorf("result has %d centroids, want %d", len(res.Centroids), k)
	}
	if _, _, err := ChooseK(pts, 0, 0.1, Config{}); err == nil {
		t.Error("maxK=0 accepted")
	}
}

func TestChooseKCapsAtN(t *testing.T) {
	pts := []float64{0, 0, 1, 0, 100, 0}
	k, _, err := ChooseK(pts, 10, 0.01, Config{Seed: 1, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k > 3 {
		t.Errorf("k = %d exceeds n", k)
	}
}

// TestDistinct checks the deduplication behind the kernel on its own:
// pairs are one point exactly when their bit patterns are equal, so +0
// and −0 and NaNs of different payloads stay apart, distinct points are
// numbered by first occurrence, and an input without repeats comes back
// in its own order with the identity index. The 50×50 lattice shares every x0 with 49
// other points, so a probe that compared one coordinate would merge some.
func TestDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var xy []float64
	for i := 0; i < 5000; i++ {
		v := r.Intn(2500)
		xy = append(xy, float64(v%50), float64(v/50))
	}
	negZero, otherNaN := math.Copysign(0, -1), math.Float64frombits(math.Float64bits(math.NaN())^1)
	xy = append(xy, 0, 0, negZero, 0, 0, negZero, math.NaN(), 1, otherNaN, 1, math.NaN(), 1, 0, 0)

	pts, of := distinct(xy)
	first := map[[2]uint64]int{}
	for i := 0; i < len(xy)/2; i++ {
		key := [2]uint64{math.Float64bits(xy[2*i]), math.Float64bits(xy[2*i+1])}
		j, seen := first[key]
		if !seen {
			j = len(first)
			first[key] = j
		}
		if int(of[i]) != j {
			t.Fatalf("point %d (%v, %v) is distinct point %d, want %d", i, xy[2*i], xy[2*i+1], of[i], j)
		}
		if math.Float64bits(pts[2*j]) != key[0] || math.Float64bits(pts[2*j+1]) != key[1] {
			t.Fatalf("distinct point %d is (%v, %v), want (%v, %v)", j, pts[2*j], pts[2*j+1], xy[2*i], xy[2*i+1])
		}
	}
	if len(pts) != 2*len(first) {
		t.Fatalf("%d distinct points, want %d", len(pts)/2, len(first))
	}

	once := []float64{1, 2, 3, 4, negZero, 4, 0, 4}
	if pts, of := distinct(once); !slices.Equal(of, []int32{0, 1, 2, 3}) || !slices.Equal(pts, once) {
		t.Fatalf("an input without repeats gave points %v, index %v", pts, of)
	}
}
