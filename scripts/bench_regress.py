#!/usr/bin/env python3
"""Regression gate over BENCH_*.json sidecars.

Two modes:

  Diff mode — compare a current sidecar against a baseline:
      bench_regress.py baseline.json current.json
  Any fetch-class counter (``*tuples_fetched``, ``*index_lookups``,
  ``*fetched*``, ``*rows``) that grew versus the baseline is a regression
  (exit 1): scale independence means the access pattern is deterministic, so
  these counters must be bit-stable run to run. Timing keys (``*_ms``) are
  reported but never fail the diff — wall clock belongs to the machine, not
  the patch.

  Bound-check mode — verify invariants inside one or more sidecars:
      bench_regress.py --check-bounds a.json [b.json ...] [--overhead-pct 3]
  Violations are accumulated across *all* sidecars and printed together
  before the script exits non-zero, so a bound regression and a serve
  regression landing in the same PR surface in one CI run instead of two.
  Checks that every measured fetch count stays within its recorded static
  Theorem 4.2 bound (``base_tuples_fetched <= static_bound`` per scale, and
  per-op ``opN.tuples_fetched <= opN.static_bound * max(1, opN.index_lookups)``
  — per-op bounds are per index probe), and that the armed-
  but-untripped resource governor costs at most ``--overhead-pct`` percent.
  Sidecars carrying ``serve.instr.*`` keys (bench_serve) get the same
  percentage cap (+1 ms cushion) on the access-log-armed batch versus the
  plain batch.

  bench_fig_bounded_q1 measures its two timing gates by interleaved
  repeat-and-compare (bench/bench_util.h): pairs of short windows, A B then
  B A, one ratio per pair, reported as the median ratio with a 95% bootstrap
  confidence interval. Each gate reads the median, pooled over many pairs so
  that drift cancels within a pair and noise averages out across them; the
  interval is printed for information only:
    governor  ``governor.overhead_ratio``: fails when the median is more
              than ``--overhead-pct`` percent over 1;
    cache     ``cache.speedup`` (cold / warm analysis): fails when the
              median is under 5x.

Exit status: 0 clean, 1 regression/violation, 2 usage or unreadable input.
"""

import argparse
import json
import sys


FETCH_KEY_MARKERS = ("tuples_fetched", "index_lookups", "fetched", "rows")


def load_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_regress: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        print(f"bench_regress: {path} has no 'metrics' object", file=sys.stderr)
        sys.exit(2)
    return metrics


def as_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def is_fetch_key(key):
    last = key.rsplit(".", 1)[-1]
    return any(marker in last for marker in FETCH_KEY_MARKERS)


def diff_mode(baseline_path, current_path):
    baseline = load_metrics(baseline_path)
    current = load_metrics(current_path)
    failures = []
    for key, base_value in sorted(baseline.items()):
        base_num = as_number(base_value)
        if base_num is None or key not in current:
            continue
        cur_num = as_number(current[key])
        if cur_num is None:
            continue
        if key.endswith("_ms"):
            if base_num > 0:
                delta = 100.0 * (cur_num - base_num) / base_num
                if abs(delta) >= 10.0:
                    print(f"  note  {key}: {base_num:g} -> {cur_num:g} ms "
                          f"({delta:+.1f}%)")
            continue
        if is_fetch_key(key) and cur_num > base_num:
            failures.append(f"{key}: {base_num:g} -> {cur_num:g}")
    missing = sorted(k for k in baseline if k not in current)
    for key in missing:
        if is_fetch_key(key):
            failures.append(f"{key}: present in baseline, missing in current")
    if failures:
        print(f"FAIL: {len(failures)} fetch-counter regression(s) "
              f"({baseline_path} -> {current_path}):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"OK: no fetch-counter regressions ({baseline_path} -> "
          f"{current_path})")
    return 0


def check_bounds_one(path, overhead_pct):
    """Returns the list of violations found in one sidecar (empty = clean)."""
    metrics = load_metrics(path)
    failures = []

    # Group keys by their dotted prefix ("persons_3000.", "...op2.") so each
    # fetch count is compared against the static bound recorded next to it.
    groups = {}
    for key, value in metrics.items():
        prefix, _, leaf = key.rpartition(".")
        groups.setdefault(prefix, {})[leaf] = value

    for prefix, leaves in sorted(groups.items()):
        bound = as_number(leaves.get("static_bound"))
        if bound is None or bound < 0:
            continue
        # Per-operator groups (the ones carrying a `label`) record a
        # *per-lookup* bound: an atom driven by k index probes may fetch up
        # to k * bound tuples in total. Scale-level groups record the
        # query's M itself and are compared strictly.
        if "label" in leaves:
            lookups = as_number(leaves.get("index_lookups")) or 0
            bound = bound * max(1.0, lookups)
        for fetch_leaf in ("base_tuples_fetched", "tuples_fetched"):
            fetched = as_number(leaves.get(fetch_leaf))
            if fetched is not None and fetched > bound:
                failures.append(
                    f"{prefix}.{fetch_leaf} = {fetched:g} exceeds "
                    f"allowed bound = {bound:g}")

    ratio = ratio_with_ci(metrics, "governor.overhead_ratio")
    if ratio is not None:
        median, low, high = (100.0 * (x - 1.0) for x in ratio[:3])
        pairs = ratio[3]
        print(f"governor overhead: median {median:+.2f}%, 95% CI "
              f"[{low:+.2f}%, {high:+.2f}%] over {pairs:g} interleaved pairs "
              f"(limit {overhead_pct:g}%)")
        if median > overhead_pct:
            failures.append(
                f"governor overhead {median:+.2f}% (95% CI [{low:+.2f}%, "
                f"{high:+.2f}%]) exceeds the {overhead_pct:g}% cap")

    # Serve instrumentation overhead: the access-log-armed batch may cost at
    # most --overhead-pct over the plain batch (+1 ms absolute cushion so
    # sub-millisecond batches don't trip on timer granularity), mirroring
    # the governed-parallel gate. Written by bench_serve.
    plain = as_number(metrics.get("serve.instr.plain_ms"))
    instrumented = as_number(metrics.get("serve.instr.instrumented_ms"))
    if plain and instrumented is not None:
        overhead = 100.0 * (instrumented - plain) / plain
        print(f"serve instrumentation overhead: {overhead:+.2f}% "
              f"(instrumented {instrumented:.3f} ms vs plain {plain:.3f} ms, "
              f"limit {overhead_pct:g}%)")
        if instrumented > plain * (1.0 + overhead_pct / 100.0) + 1.0:
            failures.append(
                f"access-log instrumentation costs {overhead:.2f}% over the "
                f"plain batch (need <= {overhead_pct:g}% + 1 ms cushion)")

    failures += check_analysis_cache(metrics)
    return failures


def check_bounds_mode(paths, overhead_pct):
    """Checks every sidecar, printing all violations before exiting."""
    total = 0
    for path in paths:
        failures = check_bounds_one(path, overhead_pct)
        if failures:
            print(f"FAIL: {len(failures)} bound violation(s) in {path}:")
            for f in failures:
                print(f"  {f}")
            total += len(failures)
        else:
            print(f"OK: bounds hold in {path}")
    if total:
        print(f"FAIL: {total} bound violation(s) across "
              f"{len(paths)} sidecar(s)")
        return 1
    return 0


def ratio_with_ci(metrics, key):
    """(median, ci_low, ci_high, pairs) of an interleaved comparison, or
    None when the sidecar does not carry `key`."""
    values = [as_number(metrics.get(key + suffix))
              for suffix in ("", "_ci_low", "_ci_high")]
    if any(v is None for v in values):
        return None
    pairs = as_number(metrics.get(key.rsplit(".", 1)[0] + ".pairs")) or 0
    return (*values, pairs)


def check_analysis_cache(metrics):
    """Cache gate (bench_fig_bounded_q1): a warm lookup must be >= 5x
    cheaper than a cold derivation; fails when the median cold/warm speedup
    is under 5x."""
    failures = []
    ratio = ratio_with_ci(metrics, "cache.speedup")
    if ratio is not None:
        median, low, high, pairs = ratio
        print(f"analysis cache speedup: median {median:.1f}x, 95% CI "
              f"[{low:.1f}x, {high:.1f}x] over {pairs:g} interleaved pairs "
              f"(need >= 5x)")
        if median < 5.0:
            failures.append(
                f"warm analysis lookup only {median:.1f}x faster than cold "
                f"derivation, CI [{low:.1f}x, {high:.1f}x] (need >= 5x)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json sidecars / verify fetch bounds")
    parser.add_argument("files", nargs="+",
                        help="baseline.json current.json, or one or more "
                             "files with --check-bounds")
    parser.add_argument("--check-bounds", action="store_true",
                        help="verify static-bound, governor-overhead, and "
                             "analysis-cache invariants inside each given "
                             "sidecar, accumulating all violations")
    parser.add_argument("--overhead-pct", type=float, default=3.0,
                        help="max governed-vs-ungoverned overhead percent "
                             "(default 3)")
    args = parser.parse_args()

    if args.check_bounds:
        return check_bounds_mode(args.files, args.overhead_pct)
    if len(args.files) != 2:
        parser.error("diff mode takes baseline.json current.json")
    return diff_mode(args.files[0], args.files[1])


if __name__ == "__main__":
    sys.exit(main())
