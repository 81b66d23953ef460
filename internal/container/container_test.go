package container

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"harmony/internal/stats"
)

func TestPerResourceBound(t *testing.T) {
	epsR, err := PerResourceBound(0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Joint bound must be respected: 1-(1-epsR)^2 <= 0.05.
	joint := 1 - math.Pow(1-epsR, 2)
	if joint > 0.05+1e-12 {
		t.Errorf("joint violation %v exceeds 0.05", joint)
	}
	if epsR >= 0.05 {
		t.Errorf("per-resource bound %v should be < joint 0.05", epsR)
	}
	// Single resource: bound passes through.
	one, _ := PerResourceBound(0.05, 1)
	if math.Abs(one-0.05) > 1e-12 {
		t.Errorf("single-resource bound = %v", one)
	}
	if _, err := PerResourceBound(0, 2); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := PerResourceBound(1, 2); err == nil {
		t.Error("eps=1 accepted")
	}
	// NaN passes neither range test; 1e-17 splits to an eps_r of 0, whose
	// Z is +Inf.
	for _, eps := range []float64{math.NaN(), 1e-17} {
		if _, err := PerResourceBound(eps, 2); !errors.Is(err, ErrBadBound) {
			t.Errorf("eps=%v: err = %v, want ErrBadBound", eps, err)
		}
	}
	if _, err := PerResourceBound(0.1, 0); err == nil {
		t.Error("zero resources accepted")
	}
}

func TestZScore(t *testing.T) {
	// A joint bound of 1-(1-0.025)² over two resources is eps_r = 0.025.
	s, err := ForClass(0.1, 0.02, 0.05, 0.01, 1-0.975*0.975)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Z-1.959964) > 1e-4 {
		t.Errorf("Z(0.025) = %v, want 1.96", s.Z)
	}
}

func TestSize(t *testing.T) {
	if got := Size(0.1, 0.05, 2, 1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Size = %v, want 0.2", got)
	}
	// Clamp above at cap.
	if got := Size(0.9, 0.5, 3, 1); got != 1 {
		t.Errorf("Size clamp hi = %v", got)
	}
	// Clamp below at mean for negative z.
	if got := Size(0.1, 0.05, -4, 1); got != 0.1 {
		t.Errorf("Size clamp lo = %v", got)
	}
}

func TestViolationProbability(t *testing.T) {
	// Mean well below capacity with tiny variance: ~0.
	if p := ViolationProbability(1, 0.2, 0.0001); p > 0.001 {
		t.Errorf("low-load violation = %v", p)
	}
	// Mean equals capacity: 0.5.
	if p := ViolationProbability(1, 1, 0.01); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("at-capacity violation = %v, want 0.5", p)
	}
	// Degenerate variance.
	if p := ViolationProbability(1, 2, 0); p != 1 {
		t.Errorf("overloaded deterministic = %v, want 1", p)
	}
	if p := ViolationProbability(1, 0.5, 0); p != 0 {
		t.Errorf("underloaded deterministic = %v, want 0", p)
	}
}

func TestForClass(t *testing.T) {
	s, err := ForClass(0.1, 0.02, 0.05, 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s.CPU <= 0.1 || s.Mem <= 0.05 {
		t.Errorf("sizes not padded: %+v", s)
	}
	if s.Z <= 0 {
		t.Errorf("Z = %v", s.Z)
	}
	if _, err := ForClass(0.1, 0.02, 0.05, 0.01, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

// Empirical check of the whole chain: pack independent Gaussian tasks up to
// the container-size budget and verify the machine capacity is violated at
// most ~eps of the time.
func TestSizingBoundsEmpiricalViolation(t *testing.T) {
	const (
		eps      = 0.05
		capacity = 1.0
		taskMean = 0.05
		taskStd  = 0.01
		trials   = 20000
	)
	epsR, err := PerResourceBound(eps, 1)
	if err != nil {
		t.Fatal(err)
	}
	z := stats.NormalQuantile(1 - epsR)
	cSize := Size(taskMean, taskStd, z, 1)
	n := int(capacity / cSize) // containers that "fit" by reservation

	r := rand.New(rand.NewSource(17))
	violations := 0
	for trial := 0; trial < trials; trial++ {
		total := 0.0
		for i := 0; i < n; i++ {
			total += stats.TruncNormal(r, taskMean, taskStd, 0, 1)
		}
		if total > capacity {
			violations++
		}
	}
	rate := float64(violations) / trials
	if rate > eps {
		t.Errorf("empirical violation rate %v exceeds eps %v", rate, eps)
	}
}
