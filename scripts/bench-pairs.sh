#!/usr/bin/env bash
# Alternating parent/change runs of one BENCHMARK.json workload, the
# ROADMAP's convention for a performance claim (choosing-metrics §8):
#
#   scripts/bench-pairs.sh <workload> <parent-ref> [pairs]    (make bench-pairs)
#
# The parent is `git archive`d into .bench_build/parent/ and the change is
# the working tree; each pair runs the contract's command on both with the
# same --seed, the side that goes first alternating. Each run's whole output
# is kept in .bench_build/pairs/<workload>.<side>.<seed>.log and its contract
# line in .bench_build/pairs/<workload>.<side>.jsonl; per-pair change/parent
# ratios and each side's median are printed for BENCHMARK.json's end-to-end metrics, and the exit status is 1
# if a deterministic metric differs within a pair or a run failed its own checks
# (its contract line's correct is not true, or failed is above 0), naming the
# logs to read; under such a run's FAIL line go its log's failed check lines.
set -euo pipefail
w="${1:?usage: bench-pairs.sh <workload> <parent-ref> [pairs]}"
parent="${2:?usage: bench-pairs.sh <workload> <parent-ref> [pairs]}"
pairs="${3:-10}"

cd "$(dirname "${BASH_SOURCE[0]}")/.."
pdir=.bench_build/parent
out=.bench_build/pairs
mkdir -p "$pdir" "$out"
# Replace the parent's files, keep its build cache (.bench_build/parent/.bench_build).
find "$pdir" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$parent" | tar -x -C "$pdir"
: > "$out/$w.parent.jsonl"
: > "$out/$w.change.jsonl"

run() { # side, checkout, seed: log the whole run, append its contract line to the side's file
	local log="$out/$w.$1.$3.log"
	: > "$log"
	(cd "$2" && bash benchmark/run.sh --workload "$w" --seed "$3" --seconds 15 --trace 0) 2> >(tee -a "$log" >&2) |
		tee -a "$log" | tail -n 1 >> "$out/$w.$1.jsonl"
}

metrics="$(jq -c '[.end_to_end[].name]' BENCHMARK.json)"
lower="$(jq -c '[.end_to_end[] | select(.better == "lower") | .name]' BENCHMARK.json)"
# Online ok_share counts late answers, which depend on the host.
deterministic='["active_machines_mean","switches_per_period"]'
case "$w" in sim_*) deterministic='["ok_share","active_machines_mean","switches_per_period"]' ;; esac

printf 'pair  %s\n' "$(jq -r 'map(.[0:12] | . + " " * (12 - length)) | join(" ")' <<< "$metrics")"
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run parent "$pdir" "$i"
		run change . "$i"
	else
		run change . "$i"
		run parent "$pdir" "$i"
	fi
	jq -rn --argjson m "$metrics" --arg i "$i" \
		--slurpfile p "$out/$w.parent.jsonl" --slurpfile c "$out/$w.change.jsonl" '
		def r(x): x * 1000 | round / 1000 | tostring | . + " " * (12 - length);
		($i | . + " " * (4 - length)) + "  " +
		($m | map(. as $k | r($c[-1].metrics[$k].value / $p[-1].metrics[$k].value)) | join(" "))'
done

jq -rn --argjson m "$metrics" --argjson lower "$lower" --argjson det "$deterministic" \
	--arg logs "$out/$w" --slurpfile p "$out/$w.parent.jsonl" --slurpfile c "$out/$w.change.jsonl" '
	def logfile($side; $i): "\($logs).\($side).\($i + 1).log";
	def q(f): sort | ((length - 1) * f) as $x | ($x | floor) as $l | ($x | ceil) as $h
		| .[$l] + (.[$h] - .[$l]) * ($x - $l);
	def better($k): if $lower | index($k) then -1 else 1 end;
	"", "metric                 parent median [q1, q3]                  change median   change/parent  change better",
	($m[] as $k
		| [$p[].metrics[$k].value] as $pv | [$c[].metrics[$k].value] as $cv
		| ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * better($k) > 0)] | length) as $wins
		| "\($k + " " * (22 - ($k | length))) \($pv | q(0.5)) [\($pv | q(0.25)), \($pv | q(0.75))]"
			+ "  \($cv | q(0.5))  \(($cv | q(0.5)) / ($pv | q(0.5)) * 1000 | round / 1000)  \($wins)/\($pv | length)"),
	([$det[] as $k | range(0; $p | length) | select($p[.].metrics[$k].value != $c[.].metrics[$k].value)
		| "FAIL: pair \(. + 1): \($k) is \($p[.].metrics[$k].value) at the parent, \($c[.].metrics[$k].value) at the change"
			+ " (logs \(logfile("parent"; .)), \(logfile("change"; .)))"] as $differ
	| [range(0; $p | length) as $i | ["parent", $p[$i]], ["change", $c[$i]]
		| select(.[1].correct != true or .[1].failed > 0)
		| "FAIL: pair \($i + 1): the \(.[0]) run has correct \(.[1].correct), failed \(.[1].failed) (log \(logfile(.[0]; $i)))"] as $unchecked
	| (if $differ | length > 0 then $differ[] else "deterministic metrics equal in every pair: \($det | join(", "))" end),
		$unchecked[],
		(if $differ + $unchecked | length > 0 then "" | halt_error(1) else empty end))' |
	while IFS= read -r line; do
		printf '%s\n' "$line"
		# A run that failed its checks: print them from its log (report.go's
		# "check <name> FAILED <detail>" lines).
		if [[ $line =~ ^FAIL:\ pair\ .*\ run\ has\ correct.*\(log\ (.*)\)$ ]]; then
			sed -n 's/^check \([^ ]*\) *FAILED *\(.*\)$/    check \1: \2/p' "${BASH_REMATCH[1]}"
		fi
	done
