package lint

// Scope names one production package set. Every analyzer that does not
// apply module-wide asks ModulePass.InScope with one of these instead of
// carrying its own predicate.
type Scope uint8

const (
	// ScopeDeterministic: packages whose behavior must be a pure function
	// of their inputs (detertaint).
	ScopeDeterministic Scope = iota
	// ScopeRelease: the code that holds locks, tickers, files, and
	// response bodies — the daemon, the tenant fan-out, metrics, and
	// harmonyd (deferclose).
	ScopeRelease
	// ScopeNumeric: the numeric surface — the energy→cost chain and the
	// demand chain (divzero, nansource).
	ScopeNumeric
)

// scopeTable is the one declarative statement of what each scope covers.
var scopeTable = map[Scope]map[string]bool{
	// The simulator, the trace generator and streaming readers (a seed
	// must reproduce the same task stream in chunked and one-shot modes),
	// the control loop and its solvers, and the daemon (whose Replay is
	// the batch reference a streamed trace must reproduce bit-for-bit).
	// cmd/harmonyd is included so its genuinely wall-clock tick loop
	// carries explicit annotations.
	ScopeDeterministic: scopeSet(
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
	ScopeRelease: scopeSet(
		"harmony/internal/daemon",
		"harmony/internal/tenant",
		"harmony/internal/metrics",
		"harmony/cmd/harmonyd",
	),
	ScopeNumeric: scopeSet(
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

func scopeSet(pkgs ...string) map[string]bool {
	set := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		set[p] = true
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
