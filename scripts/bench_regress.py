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
  but-untripped resource governor costs at most ``--overhead-pct`` percent:
  sum(bounded_governed_ms) <= (1 + pct/100) * sum(bounded_ms), summed across
  scales so single-scale timer noise averages out. Sidecars carrying
  ``serve.instr.*`` keys (bench_serve) get the same percentage cap (+1 ms
  cushion) on the access-log-armed batch versus the plain batch.

  Sidecars with thread-scaling groups (a ``threads`` leaf, written by
  bench_parallel_scaling) get three more gates: every fetch-class counter
  and the Theorem 4.2 ``verdict`` must be byte-identical across thread
  counts (parallelism must not perturb accounting); the 4-thread batch must
  run >= 2x faster than 1-thread when the host *measures* >= 4 effective
  CPUs (``host.effective_cpus``, a calibrated spin probe — a host can report
  4 hardware threads and still run them on one CPU); and a warm
  analysis-cache lookup (``cache.warm_analysis_ms``) must be >= 5x cheaper
  than a cold derivation.

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

    governed_ms = 0.0
    bounded_ms = 0.0
    for prefix, leaves in sorted(groups.items()):
        g = as_number(leaves.get("bounded_governed_ms"))
        b = as_number(leaves.get("bounded_ms"))
        if g is not None and b is not None and b > 0:
            governed_ms += g
            bounded_ms += b
    if bounded_ms > 0:
        overhead = 100.0 * (governed_ms - bounded_ms) / bounded_ms
        print(f"governor overhead: {overhead:+.2f}% "
              f"(governed {governed_ms:.4f} ms vs bounded {bounded_ms:.4f} ms,"
              f" limit {overhead_pct:g}%)")
        if overhead > overhead_pct:
            failures.append(
                f"governor overhead {overhead:.2f}% exceeds "
                f"{overhead_pct:g}% cap")

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

    failures += check_thread_scaling(metrics, groups)
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


def check_thread_scaling(metrics, groups):
    """Gates for sidecars with thread-scaling groups (bench_parallel_scaling).

    Determinism: all fetch-class counters and the recorded verdict must be
    identical across thread counts. Speedup: 4 threads >= 2x over 1 thread,
    enforced only when the host measures >= 4 effective CPUs (a host that
    cannot run 4 lanes at once can verify determinism but not scaling).
    Cache: warm lookup <= cold / 5.
    """
    failures = []
    thread_groups = {
        prefix: leaves for prefix, leaves in groups.items()
        if as_number(leaves.get("threads")) is not None
    }
    if thread_groups:
        reference_prefix = min(
            thread_groups, key=lambda p: as_number(thread_groups[p]["threads"]))
        reference = thread_groups[reference_prefix]
        for prefix, leaves in sorted(thread_groups.items()):
            if prefix == reference_prefix:
                continue
            for leaf, ref_value in reference.items():
                if leaf in ("threads", "batch_ms"):
                    continue
                if not (is_fetch_key(leaf) or leaf == "verdict"):
                    continue
                if leaves.get(leaf) != ref_value:
                    failures.append(
                        f"{prefix}.{leaf} = {leaves.get(leaf)!r} differs from "
                        f"{reference_prefix}.{leaf} = {ref_value!r} — "
                        f"accounting must not depend on thread count")

        effective = as_number(metrics.get("host.effective_cpus"))
        by_threads = {
            int(as_number(leaves["threads"])): leaves
            for leaves in thread_groups.values()
        }
        if effective is None:
            print("note: sidecar has no host.effective_cpus probe; "
                  "skipping the parallel-speedup gate")
        elif effective < 4:
            print(f"note: host measures {effective:.2f} effective CPU(s) "
                  f"(host.effective_cpus < 4); skipping the parallel-speedup "
                  f"gate, which needs 4 lanes that can run at once")
        elif 1 in by_threads and 4 in by_threads:
            t1 = as_number(by_threads[1].get("batch_ms"))
            t4 = as_number(by_threads[4].get("batch_ms"))
            if t1 and t4:
                speedup = t1 / t4
                print(f"parallel speedup at 4 threads: {speedup:.2f}x "
                      f"(need >= 2x)")
                if speedup < 2.0:
                    failures.append(
                        f"4-thread batch is only {speedup:.2f}x faster than "
                        f"1-thread (need >= 2x)")

    cold = as_number(metrics.get("cache.cold_analysis_ms"))
    warm = as_number(metrics.get("cache.warm_analysis_ms"))
    if cold is not None and warm is not None and warm > 0:
        speedup = cold / warm
        print(f"analysis cache speedup: {speedup:.1f}x (need >= 5x)")
        if speedup < 5.0:
            failures.append(
                f"warm analysis lookup only {speedup:.1f}x faster than cold "
                f"derivation (need >= 5x)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json sidecars / verify fetch bounds")
    parser.add_argument("files", nargs="+",
                        help="baseline.json current.json, or one or more "
                             "files with --check-bounds")
    parser.add_argument("--check-bounds", action="store_true",
                        help="verify static-bound, governor-overhead, and "
                             "thread-scaling invariants inside each given "
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
