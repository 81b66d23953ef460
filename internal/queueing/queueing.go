// Package queueing implements the M/G/c scheduling-delay model of
// Section VI: the Erlang-C waiting probability (Eq. 2), the M/G/c mean
// waiting-time approximation (Eq. 1), and the solver that turns a per-class
// arrival rate, service statistics, and a scheduling-delay SLO into the
// minimum number of containers (§VI).
package queueing

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

var (
	// ErrUnstable is returned when no feasible server count exists
	// within the solver's cap.
	ErrUnstable = errors.New("queueing: system unstable within server cap")
	// ErrBadParam is returned for non-positive rates or delays.
	ErrBadParam = errors.New("queueing: parameters must be positive")
)

// ErlangC returns the probability that an arriving task waits in an M/M/c
// queue with c servers and offered load a = λ/μ (Eq. 2 of the paper). It
// is computed through the numerically stable Erlang-B recurrence, so it
// works for thousands of servers without overflow. The result is 1 when
// the system is saturated (a >= c) and c > 0.
func ErlangC(c int, a float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("%w: servers=%d", ErrBadParam, c)
	}
	if a < 0 {
		return 0, fmt.Errorf("%w: load=%v", ErrBadParam, a)
	}
	if a == 0 {
		return 0, nil
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1, nil
	}
	// Erlang-B recurrence: B(0)=1, B(k) = a B(k-1) / (k + a B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
		if b == 0 {
			// Underflowed: the recurrence maps 0 to 0, so the remaining
			// iterations (up to 1e7 under a wild warm-start hint) are no-ops.
			break
		}
	}
	// Erlang-C from Erlang-B.
	return b / (1 - rho*(1-b)), nil
}

// MGcWait returns the approximate mean waiting time of an M/G/c queue
// (Eq. 1): W ≈ π/(1-ρ) · (1+CV²)/2 · 1/(cμ), where π is the Erlang-C
// waiting probability, λ the arrival rate (tasks/s), mu the per-container
// service rate (1/mean duration), and sqCV the squared coefficient of
// variation of service times. It returns +Inf when the queue is unstable.
func MGcWait(c int, lambda, mu, sqCV float64) (float64, error) {
	if c <= 0 || lambda < 0 || mu <= 0 || sqCV < 0 {
		return 0, fmt.Errorf("%w: c=%d lambda=%v mu=%v cv2=%v", ErrBadParam, c, lambda, mu, sqCV)
	}
	if lambda == 0 {
		return 0, nil
	}
	a := lambda / mu
	rho := a / float64(c)
	if rho >= 1 {
		return math.Inf(1), nil
	}
	pi, err := ErlangC(c, a)
	if err != nil {
		return 0, err
	}
	return pi / (1 - rho) * (1 + sqCV) / 2 / (float64(c) * mu), nil
}

// maxContainers caps the solver's search; a class needing more than this
// many containers indicates a unit error upstream.
const maxContainers = 10_000_000

// waitEvals counts the MGcWait evaluations performed by MinContainers;
// the solver tests assert the gallop + binary-search strategy stays
// logarithmic. Atomic because concurrent policy simulations size
// containers in parallel.
var waitEvals atomic.Int64

// MinContainers returns the smallest container count c such that the
// M/G/c mean waiting time is at most maxDelay seconds and the traffic
// intensity is strictly below 1. This is the container manager's sizing
// rule from Section VI.
//
// MGcWait is monotone decreasing in c, so instead of a linear scan the
// solver gallops (doubling the offset above the stability bound) to
// bracket the answer and then binary-searches the bracket: O(log c)
// MGcWait evaluations, each itself O(c), instead of O(c) evaluations.
func MinContainers(lambda, mu, sqCV, maxDelay float64) (int, error) {
	return MinContainersHint(lambda, mu, sqCV, maxDelay, 0)
}

// WaitEvals returns the cumulative number of MGcWait evaluations performed
// by the solver, for warm-start efficiency assertions in callers' tests.
func WaitEvals() int64 { return waitEvals.Load() }

// MinContainersHint is MinContainers warm-started: hint is a guess at the
// answer (typically the previous control period's result for the same
// class). The result is identical to MinContainers for every hint; a good
// hint collapses the search to O(1) MGcWait evaluations (probe hint and
// hint-1), and a wrong one costs only the gallop distance from the hint.
// hint <= 0 disables warm-starting.
//
//harmony:coldpath M/G/c solve internals are part of containerDemand's measured per-type allocation budget
func MinContainersHint(lambda, mu, sqCV, maxDelay float64, hint int) (int, error) {
	if lambda < 0 || mu <= 0 || sqCV < 0 || maxDelay <= 0 {
		return 0, fmt.Errorf("%w: lambda=%v mu=%v cv2=%v delay=%v",
			ErrBadParam, lambda, mu, sqCV, maxDelay)
	}
	if lambda == 0 {
		return 0, nil
	}
	eval := func(c int) (float64, error) {
		waitEvals.Add(1)
		return MGcWait(c, lambda, mu, sqCV)
	}
	// Stability requires c > a, so lo is the smallest stable count. The
	// bound is checked on the float: a runaway forecast (λ = 1e300, +Inf)
	// overflows the conversion to int into a negative count.
	a := lambda / mu
	if a >= maxContainers {
		return 0, fmt.Errorf("%w: lambda=%v mu=%v", ErrUnstable, lambda, mu)
	}
	lo := int(math.Floor(a)) + 1
	w, err := eval(lo)
	if err != nil {
		return 0, err
	}
	if w <= maxDelay {
		return lo, nil
	}
	// The answer is now known to lie in (lo, ...]. Establish a bracket
	// (bad, good] with W(bad) > maxDelay >= W(good), starting from the
	// hint when one is given.
	bad, good := lo, 0
	gallopFrom := lo
	if hint > maxContainers {
		hint = maxContainers
	}
	if hint > lo {
		w, err := eval(hint)
		if err != nil {
			return 0, err
		}
		if w <= maxDelay {
			// Answer in (lo, hint]. Fast path: an exact hint is
			// confirmed by a single probe of hint-1.
			if hint-1 == lo {
				return hint, nil // W(lo) already failed above
			}
			w1, err := eval(hint - 1)
			if err != nil {
				return 0, err
			}
			if w1 > maxDelay {
				return hint, nil
			}
			good = hint - 1 // keep searching (lo, hint-1]
		} else {
			bad = hint
			gallopFrom = hint
		}
	}
	// Gallop: double the offset until the wait satisfies the SLO. On
	// exit, bad is the largest probed count that violates the SLO and
	// good the smallest probe that satisfies it.
	for step := 1; good == 0; step *= 2 {
		c := gallopFrom + step
		if c > maxContainers {
			c = maxContainers
		}
		w, err := eval(c)
		if err != nil {
			return 0, err
		}
		if w <= maxDelay {
			good = c
			break
		}
		if c == maxContainers {
			return 0, fmt.Errorf("%w: lambda=%v mu=%v", ErrUnstable, lambda, mu)
		}
		bad = c
	}
	// Binary search (bad, good]: monotonicity makes the first
	// satisfying count the minimal one.
	for good-bad > 1 {
		mid := bad + (good-bad)/2
		w, err := eval(mid)
		if err != nil {
			return 0, err
		}
		if w <= maxDelay {
			good = mid
		} else {
			bad = mid
		}
	}
	return good, nil
}

// Utilization returns the traffic intensity ρ = λ/(cμ) of an M/G/c queue,
// the fraction of container-time that is busy.
func Utilization(c int, lambda, mu float64) float64 {
	if c <= 0 || mu <= 0 {
		return math.Inf(1)
	}
	return lambda / (float64(c) * mu)
}
