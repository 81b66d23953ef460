// Nested lock acquisitions: taking a second lock while one may be held,
// in the holder's own body or in a callee's, blocks under a lock. No
// nesting means no two paths can take two locks in opposite orders.

package deferclose

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

// Forward takes A then B; Backward takes B then A. Each nested
// acquisition is reported where it happens, so the inversion shows twice.
func Forward(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want `blocking Lock of deferclose\.B\.mu while holding deferclose\.A\.mu \(acquired at nested\.go:16\)`
	b.mu.Unlock()
	a.mu.Unlock()
}

func Backward(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want `blocking Lock of deferclose\.A\.mu while holding deferclose\.B\.mu`
	a.mu.Unlock()
	b.mu.Unlock()
}

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

// lockD acquires D.mu; Outer reaches it through a call while holding
// C.mu, so the nesting is found through the callee's summary.
func lockD(d *D) {
	d.mu.Lock()
	d.mu.Unlock()
}

func Outer(c *C, d *D) {
	c.mu.Lock()
	lockD(d) // want `blocking call to deferclose\.lockD, which takes deferclose\.D\.mu, while holding deferclose\.C\.mu`
	c.mu.Unlock()
}

func Inverse(c *C, d *D) {
	d.mu.Lock()
	c.mu.Lock() // want `blocking Lock of deferclose\.C\.mu while holding deferclose\.D\.mu`
	c.mu.Unlock()
	d.mu.Unlock()
}

type E struct{ mu sync.Mutex }

type F struct{ mu sync.Mutex }

// Consistent nesting in one direction only still nests: F.mu is taken
// under E.mu, so both sites are reported.
func NestedOnce(e *E, f *F) {
	e.mu.Lock()
	f.mu.Lock() // want `blocking Lock of deferclose\.F\.mu while holding deferclose\.E\.mu`
	f.mu.Unlock()
	e.mu.Unlock()
}

func NestedAgain(e *E, f *F) {
	e.mu.Lock()
	f.mu.Lock() // want `blocking Lock of deferclose\.F\.mu while holding deferclose\.E\.mu`
	f.mu.Unlock()
	e.mu.Unlock()
}

// Sequential (non-nested) acquisition in opposite orders is fine: the
// first lock is released before the second is taken, so neither is
// taken under the other.
func SeqForward(a *A, b *B) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func SeqBackward(a *A, b *B) {
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

// Branch-released: on the path where the branch released e.mu early,
// taking f.mu nests nothing, but the may-held lockset keeps e.mu from
// the other path, so the acquisition is reported once. The release
// check is path-insensitive the same way: it follows a path that skips
// both unlocks, so e.mu also counts as not released on every path.
func BranchRelease(e *E, f *F, early bool) {
	e.mu.Lock() // want `e\.mu \(Lock\) acquired here is not released on every path`
	if early {
		e.mu.Unlock()
	}
	f.mu.Lock() // want `blocking Lock of deferclose\.F\.mu while holding deferclose\.E\.mu \(acquired at nested\.go:96\)`
	f.mu.Unlock()
	if !early {
		e.mu.Unlock()
	}
}
