package lint

// Scope names one production package set. Every analyzer that does not
// apply module-wide asks ModulePass.InScope with one of these instead of
// carrying its own predicate.
type Scope uint8

const (
	// ScopeDeterministic: packages whose behavior must be a pure function
	// of their inputs (detertaint).
	ScopeDeterministic Scope = iota
	// ScopeSpawn: where goroutines are spawned and must be joined (goleak).
	ScopeSpawn
	// ScopeRelease: the concurrent surface plus metrics and harmonyd, the
	// code that holds locks, tickers, files, and response bodies
	// (deferclose).
	ScopeRelease
	// ScopeNumeric: the numeric surface — the energy→cost chain and the
	// demand chain (divzero, nansource).
	ScopeNumeric
)

// concurrentSurface is the part every concurrency scope shares.
var concurrentSurface = []string{
	"harmony/internal/daemon",
	"harmony/internal/tenant", // per-tenant ingest workers + group tick fan-out
}

// scopeTable is the one declarative statement of what each scope covers.
var scopeTable = map[Scope]map[string]bool{
	// The simulator, the trace generator and streaming readers (a seed
	// must reproduce the same task stream in chunked and one-shot modes),
	// the control loop and its solvers, and the daemon (whose Replay is
	// the batch reference a streamed trace must reproduce bit-for-bit).
	// cmd/harmonyd is included so its genuinely wall-clock tick loop
	// carries explicit annotations.
	ScopeDeterministic: scopeSet(nil,
		"harmony/internal/sim",
		"harmony/internal/trace",
		"harmony/internal/sched",
		"harmony/internal/core",
		"harmony/internal/queueing",
		"harmony/internal/binpack",
		"harmony/internal/kmeans",
		"harmony/internal/forecast",
		"harmony/internal/classify",
		"harmony/internal/daemon",
		"harmony/internal/tenant",
		"harmony/cmd/harmonyd",
	),
	// trace: streaming sources are single-goroutine by contract.
	ScopeSpawn:   scopeSet(concurrentSurface, "harmony/internal/trace"),
	ScopeRelease: scopeSet(concurrentSurface, "harmony/internal/metrics", "harmony/cmd/harmonyd"),
	ScopeNumeric: scopeSet(nil,
		"harmony/internal/energy",
		"harmony/internal/tenant",
		"harmony/internal/core",
		"harmony/internal/queueing",
		"harmony/internal/forecast",
		"harmony/internal/sched",
		"harmony/internal/trace",
		"harmony/internal/sim",
		"harmony/internal/lp",
		"harmony/internal/stats",
		"harmony/internal/kmeans",
		"harmony/internal/binpack",
		"harmony/internal/container",
		"harmony/internal/classify", // log-space clustering: math.Log of task sizes and durations
		"harmony",                   // the facade: it once fed NaN switch costs into CBS-RELAX
	),
}

func scopeSet(base []string, more ...string) map[string]bool {
	set := make(map[string]bool, len(base)+len(more))
	for _, e := range base {
		set[e] = true
	}
	for _, e := range more {
		set[e] = true
	}
	return set
}

// InScope reports whether the scope covers the package. In fixture mode
// the table is bypassed: the fixture's root package is in every scope and
// its sub-packages are in none, so a fixture tree can model in-scope code
// calling out-of-scope helpers (detertaint's impure/pure) without test
// hooks in the table.
func (p *ModulePass) InScope(s Scope, pkgPath string) bool {
	if !p.scoped {
		return pkgPath == p.Pkgs[0].Path
	}
	return scopeTable[s][pkgPath]
}
