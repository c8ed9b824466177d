"""synchrokit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {census,exact,construct,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each measurement runs in a fresh worker process (``worker.py``) that imports
synchrokit from ``src/`` of the checkout.  ``--trace 0`` reports the
end-to-end metrics: ``setup_s`` is the median over several fresh processes
that only import the package and build the inputs; the other metrics come
from one untraced worker that runs whole passes over the workload's items.
``--trace 1`` reports the per-layer metrics of a traced run instead, with
the tracing overhead against an untraced run in the same process.  Times
are scaled to a reference host speed (see ``REFERENCE_NOMINAL_S``).  Every
output is checked outside the timed region; the last line printed is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs tiny inputs, for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("census", "exact", "construct")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 170

#: Median time of ``worker.reference_loop`` on the machine the benchmark was
#: defined on.  The shared host's speed drifts by 20 to 50 percent over
#: seconds to minutes, for the library and the reference loop alike, so
#: every time is scaled to this reference speed by reference-loop samples
#: taken around it in the same process.
REFERENCE_NOMINAL_S = 0.005

#: A call is scaled by the median of the reference samples taken before the
#: ``REFERENCE_WINDOW`` calls on either side of it and before itself.
REFERENCE_WINDOW = 2

#: Spans recorded around the benchmark's calls into each layer's public
#: functions, plus the benchmark's own item and check spans.
SPANS = (
    "sync.reset_threshold_exact",
    "sync.potential_lower_bound",
    "search.max_reset_threshold_exhaustive",
    "search.random_rt_experiment",
    "sync.pairchase_reset_word",
    "sync.extension_reset_word",
    "sync.cb_reset_word",
    "monoid.has_full_transition_monoid",
    "pairgraph.build_pair_digraph",
    "pairgraph.diameter",
    "pairgraph.certificate",
    "families.build",
    "core.word_transformation",
    "bench.item",
    "bench.check",
)

#: Counts taken by the checks of the traced run, with their units.
COUNTS = (
    ("sync.reset_threshold_exact.rt_sum", "count"),
    ("search.census.journal_bytes", "bytes"),
    ("search.census.blocks", "count"),
    ("search.random_rt_experiment.trials", "count"),
    ("search.random_rt_experiment.draws", "count"),
    ("sync.word_results", "count"),
    ("sync.word_letters", "count"),
    ("pairgraph.diameter.bfs_sources", "count"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def run_worker(root: Path, args: argparse.Namespace, workload: str, mode: str,
               timeout: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--root", str(root), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile that still has at least ten samples
    beyond it: ``(value, percentile, samples beyond)``.  With ten samples or
    fewer this is the maximum, with fewer than ten beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def failures(measurement: dict) -> list[list]:
    return [call for call in measurement["calls"] if call[3] is not None]


def speed_scale(reference_s: list[float]) -> float:
    """Factor taking times measured alongside these reference-loop samples
    to the reference speed."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_s)


def item_times(measurement: dict) -> tuple[list[float], int]:
    """Each item's median call time over the run's passes, at the reference
    speed, and how many items had a failed call."""
    reference = measurement["reference_s"]
    calls: dict[str, list[float]] = {}
    for index, (label, _, seconds, _) in enumerate(measurement["calls"]):
        nearby = reference[max(0, index - REFERENCE_WINDOW):index + REFERENCE_WINDOW + 1]
        calls.setdefault(label, []).append(seconds * speed_scale(nearby))
    failed = {call[0] for call in failures(measurement)}
    return [statistics.median(times) for times in calls.values()], len(failed)


def items_per_s(measurement: dict) -> float:
    times, failed = item_times(measurement)
    return (len(times) - failed) / sum(times)


def end_to_end(root: Path, args: argparse.Namespace, workload: str) -> dict:
    probes = []
    for _ in range(SETUP_PROBES):
        probe = run_worker(root, args, workload, "setup", PROBE_TIMEOUT_S)
        probes.append(probe["setup_s"] * speed_scale(probe["reference_s"]))
    res = run_worker(root, args, workload, "run", WORKER_TIMEOUT_S)
    times, _ = item_times(res)
    attempted = len(res["calls"])
    failed = len(failures(res))
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "items_per_s": (items_per_s(res), "1/s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "item_tail_ms": (1000 * tail_value, "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    per_item = f"{len(times)} items, each the median of {res['passes']} passes"
    notes = {
        "items_per_s": per_item,
        "item_p50_ms": per_item,
        "item_tail_ms": f"p{tail_pct:.1f} of {len(times)} items, {beyond} beyond",
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
    }
    report(root, workload, args, res, res, attempted, failed)
    print(f"  host speed: reference loop {1000 * statistics.median(res['reference_s']):.3f} ms, "
          f"times below scaled to {1000 * REFERENCE_NOMINAL_S:g} ms")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<16} {value:12.4f} {unit}{note}")
    print(f"  {'failed_ratio':<16} {failed / attempted:12.4f} ratio  "
          f"({failed} of {attempted} calls)")
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def per_layer(root: Path, args: argparse.Namespace, workload: str) -> dict:
    res = run_worker(root, args, workload, "run", WORKER_TIMEOUT_S)
    layers, counts = res["layers"], res["counts"]
    scale = speed_scale(res["traced"]["reference_s"])
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        entry = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.busy_s"] = (scale * entry["busy_s"], "s")
        metrics[f"{name}.self_s"] = (scale * entry["self_s"], "s")
    for name, unit in COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    trials = counts.get("search.random_rt_experiment.trials", 0)
    draws = counts.get("search.random_rt_experiment.draws", 0)
    words = counts.get("sync.word_results", 0)
    metrics["search.random_rt_experiment.accept_ratio"] = (trials / draws if draws else 0.0, "ratio")
    metrics["sync.verified_ratio"] = (counts.get("sync.verified", 0) / words if words else 0.0, "ratio")
    rates = [items_per_s(res["untraced"]), items_per_s(res["traced"])]
    metrics["trace.untraced_items_per_s"] = (rates[0], "1/s")
    metrics["trace.traced_items_per_s"] = (rates[1], "1/s")
    metrics["trace.overhead_ratio"] = ((rates[0] - rates[1]) / rates[0], "ratio")
    attempted = len(res["untraced"]["calls"]) + len(res["traced"]["calls"])
    failed = len(failures(res["untraced"])) + len(failures(res["traced"]))
    report(root, workload, args, res, res["traced"], attempted, failed)
    print(f"  spans written to {res['spans_file']}; busy and self times below scaled "
          f"to the reference speed by {scale:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.6f} {unit}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def report(root, workload, args, res, measurement, attempted, failed) -> None:
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print(f"  machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {res['numpy']}, git {git_sha(root)}")
    print(f"  passes {measurement['passes']}  calls {attempted}  failed {failed}  "
          f"timed {measurement['busy_s']:.3f} s  worker setup {res['setup_s']:.3f} s")
    for key in ("untraced", "traced") if args.trace else (None,):
        for label, pass_no, _, error in failures(res[key] if key else res)[:10]:
            print(f"  FAILED pass {pass_no} {label}: {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "synchrokit" / "__init__.py").is_file():
        print(f"error: no synchrokit sources under {root / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(root, args, name) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
