package queueing

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// directErlangC computes Eq. 2 by direct summation, valid for small c.
func directErlangC(c int, a float64) float64 {
	rho := a / float64(c)
	fact := 1.0
	sum := 0.0
	for k := 0; k < c; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		sum += math.Pow(a, float64(k)) / fact
	}
	cf := fact * float64(c) // c! = (c-1)! * c
	top := math.Pow(a, float64(c)) / (cf * (1 - rho))
	return top / (sum + top)
}

func TestErlangCValidation(t *testing.T) {
	if _, err := ErlangC(0, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := ErlangC(1, -1); err == nil {
		t.Error("negative load accepted")
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1 with rho=0.5: waiting probability equals rho.
	p, err := ErlangC(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !near(p, 0.5, 1e-12) {
		t.Errorf("ErlangC(1, 0.5) = %v, want 0.5", p)
	}
	// Zero load never waits.
	p, _ = ErlangC(10, 0)
	if p != 0 {
		t.Errorf("ErlangC(10,0) = %v", p)
	}
	// Saturated system always waits.
	p, _ = ErlangC(2, 2)
	if p != 1 {
		t.Errorf("ErlangC saturated = %v", p)
	}
}

func TestErlangCMatchesDirectSum(t *testing.T) {
	tests := []struct {
		c int
		a float64
	}{
		{2, 1.0}, {3, 2.4}, {5, 3.0}, {8, 6.5}, {12, 10.0},
	}
	for _, tt := range tests {
		got, err := ErlangC(tt.c, tt.a)
		if err != nil {
			t.Fatal(err)
		}
		want := directErlangC(tt.c, tt.a)
		if !near(got, want, 1e-9) {
			t.Errorf("ErlangC(%d, %v) = %v, want %v", tt.c, tt.a, got, want)
		}
	}
}

func TestErlangCLargeNoOverflow(t *testing.T) {
	p, err := ErlangC(5000, 4900)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("ErlangC(5000, 4900) = %v", p)
	}
}

// Property: Erlang-C lies in [0,1] and is monotone decreasing in c.
func TestErlangCProperties(t *testing.T) {
	f := func(rawC uint8, rawA float64) bool {
		c := 1 + int(rawC%50)
		a := math.Mod(math.Abs(rawA), float64(c)) // keep stable
		if math.IsNaN(a) {
			return true
		}
		p1, err := ErlangC(c, a)
		if err != nil || p1 < 0 || p1 > 1 {
			return false
		}
		p2, err := ErlangC(c+1, a)
		if err != nil {
			return false
		}
		return p2 <= p1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMGcWaitMM1(t *testing.T) {
	// M/M/1 (CV²=1): W = rho/(mu - lambda) = lambda/(mu(mu-lambda)).
	lambda, mu := 0.5, 1.0
	w, err := MGcWait(1, lambda, mu, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := lambda / (mu * (mu - lambda))
	if !near(w, want, 1e-12) {
		t.Errorf("MM1 wait = %v, want %v", w, want)
	}
}

func TestMGcWaitDeterministicHalf(t *testing.T) {
	// CV²=0 (deterministic service) halves the M/M/c wait.
	wm, _ := MGcWait(3, 2, 1, 1)
	wd, _ := MGcWait(3, 2, 1, 0)
	if !near(wd, wm/2, 1e-12) {
		t.Errorf("deterministic wait = %v, want %v", wd, wm/2)
	}
}

func TestMGcWaitEdges(t *testing.T) {
	if w, _ := MGcWait(4, 0, 1, 1); w != 0 {
		t.Errorf("zero arrivals wait = %v", w)
	}
	w, _ := MGcWait(1, 2, 1, 1)
	if !math.IsInf(w, 1) {
		t.Errorf("unstable wait = %v, want +Inf", w)
	}
	if _, err := MGcWait(0, 1, 1, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := MGcWait(1, 1, 0, 1); err == nil {
		t.Error("mu=0 accepted")
	}
	if _, err := MGcWait(1, 1, 1, -1); err == nil {
		t.Error("negative CV² accepted")
	}
}

func TestMinContainersValidation(t *testing.T) {
	if _, err := MinContainers(1, 0, 1, 1); err == nil {
		t.Error("mu=0 accepted")
	}
	if _, err := MinContainers(1, 1, 1, 0); err == nil {
		t.Error("zero delay accepted")
	}
	if _, err := MinContainers(-1, 1, 1, 1); err == nil {
		t.Error("negative lambda accepted")
	}
}

// A load no container count can carry is ErrUnstable however large it is:
// the stability bound must be tested before λ/μ is converted to an int,
// where 1e300 and +Inf overflow to a negative count.
func TestMinContainersRunawayLoad(t *testing.T) {
	tests := []struct {
		name       string
		lambda, mu float64
		hint       int
	}{
		{"at the cap", maxContainers, 1, 0},
		{"1e300", 1e300, 1, 0},
		{"+Inf", math.Inf(1), 1, 0},
		{"+Inf hinted", math.Inf(1), 0.5, 12},
		{"huge over tiny mu", 1e200, 1e-200, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			before := WaitEvals()
			c, err := MinContainersHint(tt.lambda, tt.mu, 1, 60, tt.hint)
			if !errors.Is(err, ErrUnstable) || c != 0 {
				t.Errorf("MinContainersHint(%v, %v) = %d, %v; want 0, ErrUnstable", tt.lambda, tt.mu, c, err)
			}
			if n := WaitEvals() - before; n != 0 {
				t.Errorf("%d MGcWait evaluations spent on an unsizable load", n)
			}
		})
	}
	if c, err := MinContainers(maxContainers-0.5, 1, 0, 1e9); err != nil || c != maxContainers {
		t.Errorf("just under the cap: %d, %v; want %d", c, err, maxContainers)
	}
}

func TestMinContainersZeroRate(t *testing.T) {
	c, err := MinContainers(0, 1, 1, 10)
	if err != nil || c != 0 {
		t.Errorf("MinContainers(0) = %d, %v", c, err)
	}
}

func TestMinContainersSatisfiesSLO(t *testing.T) {
	tests := []struct {
		lambda, mu, cv2, delay float64
	}{
		{5, 0.1, 1, 30},
		{0.5, 1.0 / 300, 2.5, 60},
		{100, 1, 0.5, 1},
		{0.01, 1.0 / 86400, 4, 3600},
	}
	for _, tt := range tests {
		c, err := MinContainers(tt.lambda, tt.mu, tt.cv2, tt.delay)
		if err != nil {
			t.Fatalf("MinContainers(%+v): %v", tt, err)
		}
		w, err := MGcWait(c, tt.lambda, tt.mu, tt.cv2)
		if err != nil {
			t.Fatal(err)
		}
		if w > tt.delay {
			t.Errorf("c=%d gives wait %v > SLO %v", c, w, tt.delay)
		}
		if rho := Utilization(c, tt.lambda, tt.mu); rho >= 1 {
			t.Errorf("c=%d leaves rho=%v >= 1", c, rho)
		}
		// Minimality: c-1 must violate the SLO or stability.
		if c > 1 {
			wPrev, err := MGcWait(c-1, tt.lambda, tt.mu, tt.cv2)
			if err != nil {
				t.Fatal(err)
			}
			if wPrev <= tt.delay {
				t.Errorf("c=%d not minimal: c-1 wait %v <= %v", c, wPrev, tt.delay)
			}
		}
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(4, 2, 1); !near(got, 0.5, 1e-12) {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := Utilization(0, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("Utilization(c=0) = %v, want +Inf", got)
	}
}

// Property: MinContainers result is always stable and tight delays demand
// at least as many containers as loose delays.
func TestMinContainersMonotoneInSLO(t *testing.T) {
	f := func(rawL, rawD float64) bool {
		lambda := math.Mod(math.Abs(rawL), 50) + 0.01
		dTight := math.Mod(math.Abs(rawD), 100) + 0.1
		dLoose := dTight * 10
		mu := 0.05
		cTight, err1 := MinContainers(lambda, mu, 1, dTight)
		cLoose, err2 := MinContainers(lambda, mu, 1, dLoose)
		if err1 != nil || err2 != nil {
			return false
		}
		return cTight >= cLoose
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// linearMinContainers is the pre-optimization reference: scan c upward
// from the stability bound, one MGcWait evaluation per candidate.
// Returns the minimal c and how many evaluations the scan spent.
func linearMinContainers(lambda, mu, sqCV, maxDelay float64) (int, int, error) {
	a := lambda / mu
	evals := 0
	for c := int(math.Floor(a)) + 1; c <= maxContainers; c++ {
		evals++
		w, err := MGcWait(c, lambda, mu, sqCV)
		if err != nil {
			return 0, evals, err
		}
		if w <= maxDelay {
			return c, evals, nil
		}
	}
	return 0, evals, ErrUnstable
}

// The gallop + binary-search solver must return exactly the linear
// scan's answer on a randomized sweep while spending asymptotically
// fewer MGcWait evaluations (logarithmic in c rather than linear).
func TestMinContainersMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var galloped, linear int64
	for i := 0; i < 300; i++ {
		// Spread the offered load over orders of magnitude (1..20000
		// containers of work) and make some delay targets tight enough
		// that the answer lands hundreds of containers past the
		// stability bound — the regime where the linear scan pays
		// hundreds of O(c) Erlang evaluations.
		a := math.Exp(rng.Float64() * math.Log(20000))
		mu := math.Exp(-(rng.Float64()*9 + 1)) // mean service 2.7 s .. 6 h
		lambda := a * mu
		sqCV := rng.Float64() * 4
		maxDelay := math.Exp(rng.Float64()*34-32) / mu

		wantC, wantEvals, wantErr := linearMinContainers(lambda, mu, sqCV, maxDelay)
		before := waitEvals.Load()
		gotC, gotErr := MinContainers(lambda, mu, sqCV, maxDelay)
		gotEvals := int(waitEvals.Load() - before)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d (λ=%g μ=%g cv²=%g d=%g): err=%v, linear err=%v",
				i, lambda, mu, sqCV, maxDelay, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if gotC != wantC {
			t.Fatalf("case %d (λ=%g μ=%g cv²=%g d=%g): c=%d, linear c=%d",
				i, lambda, mu, sqCV, maxDelay, gotC, wantC)
		}
		// Per-case bound: gallop + binary search is 2·log2(span)+2.
		span := gotC - int(math.Floor(lambda/mu))
		if bound := 2*bits.Len(uint(span+1)) + 2; gotEvals > bound {
			t.Errorf("case %d: %d evaluations for span %d, want <= %d",
				i, gotEvals, span, bound)
		}
		galloped += int64(gotEvals)
		linear += int64(wantEvals)
	}
	// Aggregate: the sweep includes answers in the thousands, where the
	// linear scan pays thousands of evaluations and galloping ~20.
	if galloped*4 >= linear {
		t.Errorf("galloping spent %d evaluations vs linear %d; expected far fewer",
			galloped, linear)
	}
}

// logDirectErlangC evaluates Eq. 2 by direct summation in log space
// (log-sum-exp over a^k/k!), which stays finite for any c. It is the
// independent reference documenting why the Erlang-B recurrence in
// ErlangC is sufficient: the two agree to near machine precision all
// the way to c = 10^4, where naive direct summation would overflow.
func logDirectErlangC(c int, a float64) float64 {
	lga := math.Log(a)
	rho := a / float64(c)
	terms := make([]float64, c+1)
	maxT := math.Inf(-1)
	for k := 0; k <= c; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		terms[k] = float64(k)*lga - lg
		if k == c {
			terms[k] -= math.Log1p(-rho) // the (1-rho)^-1 factor on the c-term
		}
		if terms[k] > maxT {
			maxT = terms[k]
		}
	}
	sum := 0.0
	for _, lt := range terms {
		sum += math.Exp(lt - maxT)
	}
	logDenom := maxT + math.Log(sum)
	return math.Exp(terms[c] - logDenom)
}

func TestErlangCMatchesLogSpaceDirectSumLargeC(t *testing.T) {
	for _, c := range []int{10, 100, 1000, 10000} {
		for _, load := range []float64{0.5, 0.8, 0.95, 0.99} {
			a := load * float64(c)
			got, err := ErlangC(c, a)
			if err != nil {
				t.Fatal(err)
			}
			want := logDirectErlangC(c, a)
			if math.Abs(got-want) > 1e-8*math.Max(want, 1e-300) && math.Abs(got-want) > 1e-10 {
				t.Errorf("ErlangC(%d, %g) = %v, log-space direct sum %v", c, a, got, want)
			}
		}
	}
}

// MinContainersHint must return exactly MinContainers' answer for every
// hint — exact, near, wild, or out of range — and an exact hint must
// collapse the search to a constant number of MGcWait evaluations.
func TestMinContainersHintMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a := math.Exp(rng.Float64() * math.Log(20000))
		mu := math.Exp(-(rng.Float64()*9 + 1))
		lambda := a * mu
		sqCV := rng.Float64() * 4
		maxDelay := math.Exp(rng.Float64()*34-32) / mu

		want, wantErr := MinContainers(lambda, mu, sqCV, maxDelay)
		hints := []int{0, -5, want, want - 1, want + 1, want / 2, want * 2,
			int(math.Floor(a)), maxContainers + 7, rng.Intn(40000)}
		for _, hint := range hints {
			got, gotErr := MinContainersHint(lambda, mu, sqCV, maxDelay, hint)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("case %d hint %d: err=%v, cold err=%v", i, hint, gotErr, wantErr)
			}
			if wantErr == nil && got != want {
				t.Fatalf("case %d (λ=%g μ=%g cv²=%g d=%g) hint %d: c=%d, cold c=%d",
					i, lambda, mu, sqCV, maxDelay, hint, got, want)
			}
		}
	}
}

// An exact warm-start hint (the previous control period's answer under a
// near-identical load) must cost at most 3 MGcWait evaluations — the
// stability probe, the hint, and its confirming neighbor — where a cold
// start pays the full gallop + binary search.
func TestMinContainersHintEvalCounts(t *testing.T) {
	cases := []struct {
		lambda, mu, sqCV, maxDelay float64
	}{
		{lambda: 120, mu: 0.01, sqCV: 2, maxDelay: 1},      // answer far past stability
		{lambda: 4000, mu: 0.05, sqCV: 1.5, maxDelay: 0.2}, // large system
		{lambda: 9, mu: 0.003, sqCV: 3, maxDelay: 5},       // small system, tight SLO
	}
	for i, tc := range cases {
		before := waitEvals.Load()
		want, err := MinContainers(tc.lambda, tc.mu, tc.sqCV, tc.maxDelay)
		coldEvals := int(waitEvals.Load() - before)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}

		before = waitEvals.Load()
		got, err := MinContainersHint(tc.lambda, tc.mu, tc.sqCV, tc.maxDelay, want)
		hintEvals := int(waitEvals.Load() - before)
		if err != nil || got != want {
			t.Fatalf("case %d: hinted answer %d (err %v), want %d", i, got, err, want)
		}
		if hintEvals > 3 {
			t.Errorf("case %d: exact hint cost %d evaluations, want <= 3", i, hintEvals)
		}
		if coldEvals > 4 && hintEvals >= coldEvals {
			t.Errorf("case %d: exact hint cost %d evaluations, cold start %d — no saving",
				i, hintEvals, coldEvals)
		}

		// A near hint (load drifted slightly since last period) still
		// beats the cold start.
		before = waitEvals.Load()
		got, err = MinContainersHint(tc.lambda, tc.mu, tc.sqCV, tc.maxDelay, want+2)
		nearEvals := int(waitEvals.Load() - before)
		if err != nil || got != want {
			t.Fatalf("case %d: near-hinted answer %d (err %v), want %d", i, got, err, want)
		}
		if coldEvals > 6 && nearEvals >= coldEvals {
			t.Errorf("case %d: near hint cost %d evaluations, cold start %d — no saving",
				i, nearEvals, coldEvals)
		}
	}
}
