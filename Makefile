GO ?= go

.PHONY: build vet lint test race bench fuzz benchmark-module bench-pairs check loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# go vet plus the repo's own determinism/concurrency analyzers
# (internal/lint, see DESIGN.md §9 and §12), and a drift check that the
# shipped analyzer set still matches the documented one. The binary is
# built once so the module isn't recompiled per invocation.
lint: vet
	$(GO) build -o bin/harmony-lint ./cmd/harmony-lint
	./bin/harmony-lint -timing ./...
	./bin/harmony-lint -list | diff -u cmd/harmony-lint/testdata/analyzers.txt -

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark, as a does-it-run smoke pass.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Ten seconds of each fuzz target (the ingest decoder, the
# characterization and tenants-config loaders, the characterization's
# settings, the CSV and JSON-lines task sources, the sparse LP engine
# against the dense tableau, the pruned K-means kernel against plain
# Lloyd iterations, the controller constructor's accept-or-decide
# promise, and the tenants constructors' route-or-count-invalid and
# accept-or-decide promises); CI's fuzz smoke runs this target. Each name
# is anchored: -fuzz must match one target of its package.
# TestMakeFuzzRunsEveryTarget keeps the list whole.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTasks$$' -fuzztime 10s ./internal/daemon
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/classify
	$(GO) test -run '^$$' -fuzz '^FuzzCharacterize$$' -fuzztime 10s ./internal/classify
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/tenant
	$(GO) test -run '^$$' -fuzz '^FuzzNew$$' -fuzztime 10s ./internal/tenant
	$(GO) test -run '^$$' -fuzz '^FuzzCSVSource$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzJSONLSource$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSolveMatchesDense$$' -fuzztime 10s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzLloydMatchesBruteForce$$' -fuzztime 10s ./internal/kmeans
	$(GO) test -run '^$$' -fuzz '^FuzzNewLoop$$' -fuzztime 10s ./internal/sched

# benchmark/ is a nested module that `go test ./...` never compiles; vet
# and test it (unit tests plus the untraced smoke, ~5 s) so a refactor
# cannot silently break the dependency surface it pins (its README lists
# it), as CI does. The perf ledger itself is BENCHMARK.json +
# benchmark/run.sh.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# PAIRS alternating runs of one BENCHMARK.json workload at PARENT and in
# the working tree: per-pair ratios and medians of the six end-to-end
# metrics, failing if a deterministic one differs (scripts/bench-pairs.sh).
WORKLOAD ?= sim_baseline_fleet
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(WORKLOAD) $(PARENT) $(PAIRS)

check: build lint race bench fuzz benchmark-module

# Code lines (non-blank, not comment-only) of non-test Go per package:
# the one ruler simplicity PRs quote before and after. The last line
# leaves out internal/lint, the enforcer, which is counted on its own.
LOC = grep -hv '^\s*\(//.*\)\?$$' /dev/null $$(find $(1) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*') | wc -l
loc:
	@printf '%-22s %6d\n' harmony $$($(call LOC,. -maxdepth 1))
	@for d in internal/*/; do printf '%-22s %6d\n' $${d%/} $$($(call LOC,$$d)); done
	@printf '%-22s %6d\n' cmd $$($(call LOC,cmd))
	@printf '%-22s %6d\n' 'total (without lint)' $$($(call LOC,. ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './internal/lint/*'))
