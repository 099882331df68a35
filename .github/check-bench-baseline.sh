#!/usr/bin/env bash
# check-bench-baseline.sh RESULTS BASELINE
#
# Diffs a bench run's BENCH_results.json against the committed baseline
# snapshot. Two policies, by metric determinism:
#
#   - allocs_per_op: deterministic on any runner (same workload, same Go
#     version), so a >10 % regression is a hard failure (::error::,
#     exit 1) — and so is any allocation on a row whose baseline is 0. An intentional move regenerates the baseline in the same
#     PR (see .github/workflows/ci.yml "results json" for the awk).
#   - ns_per_op: noisy on shared runners, so a >10 % regression only
#     annotates a non-blocking ::warning::.
#   - rb_per_committed / defer_hit_rate / exact_flush_rate: virtual-time
#     deterministic like allocs/op, but they measure speculation quality,
#     which a PR may legitimately trade (e.g. a workload change) — so a
#     >10 % regression (rate rising, or a hit rate dropping) warns
#     without blocking. rb_per_committed going the wrong way is the
#     headline the per-link lookahead work drove below 0.1; treat the
#     warning as a prompt to look, not a gate.
#
# New benchmarks absent from the baseline are ignored (they enter the
# gate when the baseline is next regenerated). The reverse is NOT
# ignored: a baseline benchmark missing from the results means the gate
# silently lost coverage (renamed or deleted bench without a baseline
# regen), which is a hard failure.
set -euo pipefail

results="${1:?usage: check-bench-baseline.sh RESULTS BASELINE}"
baseline="${2:?usage: check-bench-baseline.sh RESULTS BASELINE}"

if [ ! -f "$baseline" ]; then
  echo "::notice::no committed bench baseline; skipping diff"
  exit 0
fi

diff_metric() {
  local metric="$1" severity="$2" title="$3"
  jq -r --slurpfile base "$baseline" --arg metric "$metric" \
     --arg severity "$severity" --arg title "$title" '
    to_entries[]
    | .key as $name
    | ($base[0][$name] // empty) as $b
    | (.value[$metric]) as $new
    | ($b[$metric]) as $old
    | select($old != null and $new != null and $new > $old * 1.10)
    | "::\($severity) title=\($title)::\($name) \($metric): \($old) -> \($new)"
      + (if $old > 0 then " (+\(($new / $old - 1) * 100 | floor)%)" else "" end)
  ' "$results"
}

# diff_metric_drop warns when a higher-is-better metric falls >10 % below
# the baseline (the mirror image of diff_metric).
diff_metric_drop() {
  local metric="$1" severity="$2" title="$3"
  jq -r --slurpfile base "$baseline" --arg metric "$metric" \
     --arg severity "$severity" --arg title "$title" '
    to_entries[]
    | .key as $name
    | ($base[0][$name] // empty) as $b
    | (.value[$metric]) as $new
    | ($b[$metric]) as $old
    | select($old != null and $new != null and $old > 0 and $new < $old * 0.90)
    | "::\($severity) title=\($title)::\($name) \($metric): \($old) -> \($new) (\(($new / $old - 1) * 100 | floor)%)"
  ' "$results"
}

# Coverage check: every baseline benchmark must still be present in the
# results, or the blocking gate no longer covers it.
missing=$(jq -r --slurpfile base "$baseline" '
  . as $res
  | $base[0] | keys[]
  | select(($res[.] // null) == null)
  | "::error title=bench coverage lost::\(.) is in the baseline but absent from the results"
' "$results")
if [ -n "$missing" ]; then
  echo "$missing"
  echo "A baseline benchmark vanished from the run (renamed or deleted?)."
  echo "Regenerate $baseline from this run's $results in the same PR to keep the gate honest."
  exit 1
fi

diff_metric ns_per_op warning "bench regression"
diff_metric rb_per_committed warning "speculation regression"
diff_metric_drop defer_hit_rate warning "speculation regression"
diff_metric_drop exact_flush_rate warning "speculation regression"

alloc_regressions=$(diff_metric allocs_per_op error "alloc regression")
if [ -n "$alloc_regressions" ]; then
  echo "$alloc_regressions"
  echo "allocs/op regressed >10% against $baseline (deterministic metric: this is real, not runner noise)."
  echo "If the regression is intentional, regenerate the baseline from this run's $results in the same PR."
  exit 1
fi
echo "bench baseline diff clean: allocs/op within 10% of $baseline"
