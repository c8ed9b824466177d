"""Run one workload in a fresh process and print its raw results as JSON.

``run.py`` starts this script; the last line of its standard output is one
JSON object.  Modes:

* ``setup`` — import synchrokit from ``<root>/src`` and build the workload's
  inputs; report how long that took, and time the reference loop.
* ``run`` — set up, then run whole passes over the workload's items until
  at least three passes are done and the timed item time reaches
  ``--seconds``; report every call's time and check result, and the time
  of the reference loop run before each call.  With
  ``--trace 1`` an untraced and a traced measurement of ``--seconds / 2``
  each are made, and the traced one's spans are summarized per layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

MIN_PASSES = 3
REFERENCE_SAMPLES_IN_SETUP = 20


def reference_loop() -> float:
    """Time a fixed pure-Python workload: integer arithmetic and updates of
    a 16k-entry dict, allocating no object the garbage collector tracks.

    It runs between items, outside the timed region, as the yardstick of
    the host's speed at that moment; ``run.py`` scales times by it.
    """
    start = time.perf_counter()
    table = {}
    x = 1
    for i in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 0x3FFF] = i
    return time.perf_counter() - start


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def output_digest(item, out) -> str:
    """Digest of everything an item produced: the returned value's repr
    (frozen dataclasses, tuples and dicts print every field) and the bytes
    of the files the call wrote."""
    h = hashlib.sha256(repr(out).encode())
    for path in item.files:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_output(item, out, rec, checked: dict, expected: dict) -> str | None:
    """Check one output outside the timed region; return the failure or None.

    The first output of an item in a run gets the full check.  Later ones
    must be identical to it, which both checks them and catches
    nondeterminism within the run.
    """
    from workloads import CheckError

    with rec.span("bench.check"):
        try:
            key = output_digest(item, out)
            if item.label in checked:
                if checked[item.label] != key:
                    return "output differs from the first output of this run"
                return None
            pinned = item.check(out, rec)
        except CheckError as exc:
            return f"check failed: {exc}"
        except Exception as exc:  # a checker crash on a malformed output is a failure
            return f"check raised {exc!r}"
    if pinned is not None and expected.get(item.label) != pinned:
        return f"digest {pinned} differs from the stored {expected.get(item.label)}"
    checked[item.label] = key
    return None


def measure(items, seconds: float, rec, expected: dict) -> dict:
    """Whole passes over ``items`` until ``MIN_PASSES`` are done and the
    timed item time reaches ``seconds``.  Returns every call as
    ``[label, pass, seconds, failure or None]``."""
    calls = []
    reference = []
    checked: dict[str, str] = {}
    busy = 0.0
    passes = 0
    while passes < MIN_PASSES or busy < seconds:
        outputs: dict = {}
        for item in items:
            reference.append(reference_loop())
            rec.item = f"{passes}/{item.label}"
            error = None
            with rec.span("bench.item"):
                start = time.perf_counter()
                try:
                    out = item.run(rec.call, outputs)
                except Exception as exc:  # a raising item is a failed item
                    error = f"raised {exc!r}"
                elapsed = time.perf_counter() - start
            busy += elapsed
            if error is None:
                outputs[item.label] = out
                error = check_output(item, out, rec, checked, expected)
            calls.append([item.label, passes, elapsed, error])
        passes += 1
    rec.item = None
    return {"passes": passes, "busy_s": busy, "calls": calls, "reference_s": reference}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    scratch = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        return run(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args: argparse.Namespace, root: Path, scratch: Path) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import synchrokit

    package = (root / "src" / "synchrokit").resolve()
    if Path(synchrokit.__file__).resolve().parent != package:
        print(f"error: imported synchrokit from {synchrokit.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import numpy

    from spans import Recorder
    from workloads import BUILDERS

    traced = Recorder(enabled=bool(args.trace))
    items = BUILDERS[args.workload](args.seed, args.smoke, traced.call, scratch)
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        reference = [reference_loop() for _ in range(REFERENCE_SAMPLES_IN_SETUP)]
        print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
        return 0
    expected_file = Path(__file__).with_name("expected.json")
    expected = json.loads(expected_file.read_text())["digests"]
    result: dict = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["untraced"] = measure(items, args.seconds / 2, Recorder(False), expected)
        result["traced"] = measure(items, args.seconds / 2, traced, expected)
        result["layers"] = traced.summary()
        result["counts"] = dict(traced.counts)
        spans_path = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        traced.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))
    else:
        result.update(measure(items, args.seconds, Recorder(False), expected))
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
