package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs returns well-separated gaussian blobs around the given centers.
func threeBlobs(r *rand.Rand, perBlob int, centers []Point, sigma float64) []Point {
	var pts []Point
	for _, c := range centers {
		for i := 0; i < perBlob; i++ {
			p := make(Point, len(c))
			for d := range c {
				p[d] = c[d] + sigma*r.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// nearestSq returns the squared distance from p to its closest centroid.
func nearestSq(centroids []Point, p Point) float64 {
	best := math.Inf(1)
	for _, cen := range centroids {
		best = math.Min(best, sqDist(p, cen))
	}
	return best
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Error("empty input accepted")
	}
	pts := []Point{{1}, {2}}
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(pts, Config{K: 3}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Run([]Point{{1}, {1, 2}}, Config{K: 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestRunRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	centers := []Point{{0, 0}, {10, 10}, {0, 10}}
	pts := threeBlobs(r, 100, centers, 0.5)
	res, err := Run(pts, Config{K: 3, Seed: 7, Restarts: 5})
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
	pts := []Point{{0, 0}, {2, 4}, {4, 2}}
	res, err := Run(pts, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-2) > 1e-9 || math.Abs(res.Centroids[0][1]-2) > 1e-9 {
		t.Errorf("centroid = %v, want [2 2]", res.Centroids[0])
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	res, err := Run(pts, Config{K: 2, Seed: 3})
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
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
		}
		k := 1 + r.Intn(4)
		res, err := Run(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		sse := 0.0
		for i, p := range pts {
			bd := nearestSq(res.Centroids, p)
			ad := sqDist(p, res.Centroids[res.Assignment[i]])
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
	pts := threeBlobs(r, 60, []Point{{0, 0}, {5, 5}, {10, 0}}, 1.0)
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
	pts := threeBlobs(r, 80, []Point{{0, 0}, {20, 0}, {0, 20}}, 0.5)
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
	pts := []Point{{0}, {1}, {100}}
	k, _, err := ChooseK(pts, 10, 0.01, Config{Seed: 1, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k > 3 {
		t.Errorf("k = %d exceeds n", k)
	}
}
