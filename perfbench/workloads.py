"""The benchmark's workloads: inputs, items and output checks.

A workload is a fixed list of items built from the run's seed.  An item is
one public library call on one input.  Its ``run`` is the timed part.  Its
``check`` runs outside the timed region on the item's first output in a
run: it raises :class:`CheckError` on a wrong output and, for inputs that
do not depend on the seed, returns a digest that must equal the one in
``expected.json`` (the witnesses and words produced at the commit that
defined the benchmark).  Later outputs of the same item in the run must be
identical to the checked one; see ``worker.py``.

Why these three workloads (see ``design.json`` for the full record):

* ``census`` — many tiny subset BFS runs and symmetric-group tests inside
  ``search``, plus journal and experiment-file I/O; per-call overhead
  dominates and memory stays flat.
* ``exact`` — a few subset BFS runs over about 2**n subsets each, where
  memory sets the limit: the large-input side of the engine ``census``
  uses in small pieces.
* ``construct`` — polynomial-time word synthesis, the stabilizer chain and
  the pair-digraph BFS at large n, with no subset BFS at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import synchrokit as sk
from synchrokit import core, monoid, pairgraph, search, sync

class CheckError(Exception):
    """An item's output failed its check."""


@dataclass(frozen=True)
class Item:
    """One public call on one input, with the check of its output.

    ``run(call, outputs)`` performs the call through ``call(layer, fn,
    *args)``; ``outputs`` holds this pass's earlier outputs by label, for
    items that consume another item's result.  ``check(output, rec)``
    returns the digest to compare with ``expected.json``, or ``None`` for
    seeded inputs.  ``files`` are written by the call and are part of its
    output.
    """

    label: str
    run: Callable
    check: Callable
    files: tuple[Path, ...] = ()


def digest(*parts) -> str:
    text = json.dumps(parts, separators=(",", ":"), default=list)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _word_image(rec, d: core.Dfa, word: core.Word) -> core.Transformation:
    return rec.call("core.word_transformation", core.word_transformation, d, word)


def _check_resets(rec, d: core.Dfa, word: core.Word, length: int) -> None:
    _require(len(word) == length, f"word has {len(word)} letters, reported {length}")
    _require(_word_image(rec, d, word).rank() == 1, "word does not reset the automaton")


def _check_pair_word(rec, d, word, source, target) -> None:
    t = _word_image(rec, d, word)
    image = tuple(sorted((t(source[0]), t(source[1]))))
    _require(image == tuple(target), f"word maps {source} to {image}, not {target}")


def f_diameter(n: int) -> int:
    """Closed-form pair-digraph diameter of ``f(n)`` (README, n >= 13)."""
    return (n * n + 5 * n - (28 if n % 4 == 3 else 30)) // 4


# ---------------------------------------------------------------------------
# item factories
# ---------------------------------------------------------------------------


def exact_item(label: str, d: core.Dfa, expected_rt: int | None, pinned: bool) -> Item:
    def run(call, outputs):
        return call("sync.reset_threshold_exact", sync.reset_threshold_exact, d)

    def check(out, rec):
        _require(out is not sync.NOT_SYNCHRONIZING, "reported not synchronizing")
        rt, word = out
        if expected_rt is not None:
            _require(rt == expected_rt, f"reset threshold {rt}, expected {expected_rt}")
        _check_resets(rec, d, word, rt)
        if rt > 0:
            prefix = core.Word(word.letters[:-1])
            _require(_word_image(rec, d, prefix).rank() > 1, "a proper prefix already resets")
        rec.count("sync.reset_threshold_exact.rt_sum", rt)
        return digest(rt, word.letters) if pinned else None

    return Item(label, run, check)


def potential_item(label: str, d: core.Dfa, expected_bound: int) -> Item:
    weights = range(d.n)
    target = core.StateSet.of(d.n, {0})

    def run(call, outputs):
        return call("sync.potential_lower_bound", sync.potential_lower_bound, d, weights, target)

    def check(out, rec):
        _require(out.valid, f"potential check failed at {out.counterexample}")
        _require(out.bound == expected_bound, f"bound {out.bound}, expected {expected_bound}")
        return digest(out.valid, out.bound)

    return Item(label, run, check)


def census_item(label: str, n: int, expected_max: int, journal: Path) -> Item:
    def run(call, outputs):
        return call(
            "search.max_reset_threshold_exhaustive",
            search.max_reset_threshold_exhaustive,
            n, workers=1, output_path=journal, resume=False,
        )

    def check(out, rec):
        rt, record = out
        _require(rt == expected_max, f"census maximum {rt}, expected {expected_max}")
        _require(record.rt == rt, "returned record disagrees with the maximum")
        _check_resets(rec, record.dfa, record.witness, rt)
        _require(
            rec.call("monoid.has_full_transition_monoid",
                     monoid.has_full_transition_monoid, record.dfa),
            "census record lies outside the full-transition-monoid domain",
        )
        data = journal.read_bytes()
        lines = [json.loads(line) for line in data.decode("ascii").splitlines()]
        _require(lines[0].get("type") == "header", "journal lacks its header")
        _require(lines[-1] == {"type": "result", "max_rt": rt}, "journal lacks the result line")
        rec.count("search.census.journal_bytes", len(data))
        rec.count("search.census.blocks", sum(1 for obj in lines if obj.get("type") == "block"))
        images = [t.images for t in record.dfa.transformations()]
        return digest(rt, record.witness.letters, images)

    return Item(label, run, check, (journal,))


def rrt_item(label: str, cfg: search.SearchConfig) -> Item:
    path = Path(cfg.output_path)

    def run(call, outputs):
        return call("search.random_rt_experiment", search.random_rt_experiment, cfg)

    def check(out, rec):
        n = cfg.n
        _require(out["trials"] == cfg.trials, "summary reports the wrong trial count")
        _require(out["not_synchronizing"] == 0, "a sampled automaton did not synchronize")
        _require(out["synchronizing"] == cfg.trials, "synchronizing count is off")
        _require(out["max"] <= (n - 1) ** 2, f"max {out['max']} exceeds (n-1)^2")
        data = path.read_bytes()
        lines = data.decode("ascii").splitlines()
        _require(len(lines) == cfg.trials + 2, "experiment file has the wrong line count")
        _require(json.loads(lines[-1])["max"] == out["max"], "file summary disagrees")
        rec.count("search.random_rt_experiment.trials", cfg.trials)
        rec.count("search.random_rt_experiment.draws", cfg.trials + out["resampled"])
        return None

    return Item(label, run, check, (path,))


def word_item(
    label: str,
    layer: str,
    fn: Callable,
    args: tuple,
    d: core.Dfa,
    lower: int,
    upper: int | None,
) -> Item:
    """A synthesized reset word of ``d``; ``lower`` is the known reset
    threshold and ``upper`` the method's guaranteed bound (inclusive)."""

    def run(call, outputs):
        return call(layer, fn, *args)

    def check(out, rec):
        rec.count("sync.word_results")
        rec.count("sync.word_letters", out.length)
        rec.count("sync.verified", int(bool(out.verified)))
        _require(out.verified, "library did not verify its own word")
        _check_resets(rec, d, out.word, out.length)
        _require(out.length >= lower, f"length {out.length} beats the reset threshold {lower}")
        if upper is not None:
            _require(out.length <= upper, f"length {out.length} exceeds the bound {upper}")
        return digest(out.word.letters)

    return Item(label, run, check)


def monoid_item(label: str, d: core.Dfa) -> Item:
    def run(call, outputs):
        return call("monoid.has_full_transition_monoid", monoid.has_full_transition_monoid, d)

    def check(out, rec):
        _require(out is True, "full transition monoid not recognized")
        return None

    return Item(label, run, check)


def pair_items(prefix: str, n: int, d: core.Dfa, certified: bool) -> list[Item]:
    """Pair digraph and diameter of ``f(n)``; with ``certified`` also the
    descent certificate, its check, the certified distance and the
    extremal word (``n % 4 == 3``)."""
    build_label = f"{prefix}/build_pair_digraph(f({n}))"
    cert_label = f"{prefix}/pair_certificate({n})"
    value = f_diameter(n)

    def build(call, outputs):
        return call("pairgraph.build_pair_digraph", pairgraph.build_pair_digraph, d)

    def check_build(p, rec):
        nv = n * (n - 1) // 2
        _require(p.n == n and p.num_vertices == nv, "pair digraph has the wrong size")
        for slot in range(len(p.letter_indices)):
            column = sorted(row[slot] for row in p.succ)
            _require(column == list(range(nv)), "a permutation letter does not act bijectively")
        return digest(p.letter_indices, p.succ)

    def diam(call, outputs):
        return call("pairgraph.diameter", pairgraph.diameter, outputs[build_label])

    def check_diam(out, rec):
        rec.count("pairgraph.diameter.bfs_sources", n * (n - 1) // 2)
        _require(out.strongly_connected, "pair digraph reported not strongly connected")
        _require(out.value == value, f"diameter {out.value}, closed form {value}")
        _require(len(out.word) == value, "diameter witness has the wrong length")
        _check_pair_word(rec, d, out.word, out.source, out.target)
        return digest(out.value, out.source, out.target, out.word.letters)

    items = [
        Item(build_label, build, check_build),
        Item(f"{prefix}/diameter(f({n}))", diam, check_diam),
    ]
    if not certified:
        return items
    # The certified pairs, written out here rather than read from the
    # library so that the check does not trust the code it checks.
    k = (n - 5) // 2
    start, target = (1, 3), (k + 1, k + 3)

    def cert(call, outputs):
        return call("pairgraph.certificate", pairgraph.pair_certificate, n)

    def check_cert(c, rec):
        _require((c.start, c.target) == (start, target), "certificate names other pairs")
        _require(c.bound() == value, f"certified bound {c.bound()}, closed form {value}")
        return digest(c.values, c.start, c.target)

    def verify(call, outputs):
        return call("pairgraph.certificate", pairgraph.verify_certificate,
                    outputs[build_label], outputs[cert_label])

    def check_verify(out, rec):
        _require(out.valid, f"certificate fails at {out.counterexample}")
        return None

    def distance(call, outputs):
        c = outputs[cert_label]
        return call("pairgraph.certificate", pairgraph.pair_distance,
                    outputs[build_label], c.start, c.target)

    def check_distance(out, rec):
        _require(out is not None, "certified target is unreachable")
        dist, word = out
        _require(dist == value, f"pair distance {dist}, certified {value}")
        _require(len(word) == dist, "distance witness has the wrong length")
        _check_pair_word(rec, d, word, start, target)
        return digest(dist, word.letters)

    def extremal(call, outputs):
        return call("pairgraph.certificate", pairgraph.extremal_pair_word, n)

    def check_extremal(word, rec):
        _require(len(word) == value, f"extremal word has {len(word)} letters, bound {value}")
        _check_pair_word(rec, d, word, start, target)
        return digest(word.letters)

    return items + [
        Item(cert_label, cert, check_cert),
        Item(f"{prefix}/verify_certificate(f({n}))", verify, check_verify),
        Item(f"{prefix}/pair_distance(f({n}))", distance, check_distance),
        Item(f"{prefix}/extremal_pair_word({n})", extremal, check_extremal),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: Largest census reset threshold per state count, as the README lists them.
CENSUS_MAX = {3: 4, 4: 8, 5: 14}


def _family(call, fn, *args) -> core.Dfa:
    return call("families.build", fn, *args)


def _random_full_monoid_dfa(rng: random.Random, n: int) -> core.Dfa:
    """Two permutations generating S_n plus a random rank-(n-1) letter."""
    while True:
        p1 = core.Transformation(tuple(rng.sample(range(n), n)))
        p2 = core.Transformation(tuple(rng.sample(range(n), n)))
        if monoid.generates_symmetric_group([p1, p2], n):
            break
    i, j = sorted(rng.sample(range(n), 2))
    values = rng.sample(range(n), n)
    images = [0] * n
    images[i] = images[j] = values[0]
    rest = [q for q in range(n) if q not in (i, j)]
    for q, value in zip(rest, values[1:]):
        images[q] = value
    return core.Dfa(n, (("a", p1), ("b", p2), ("c", core.Transformation(tuple(images)))))


def census(seed: int, smoke: bool, call, workdir: Path) -> list[Item]:
    # (n, calls, trials) per experiment size.  There are as many cheap n = 8
    # calls as costlier items, so the median item is the seed-independent
    # n = 4 census; the tail item is the middle one of the twenty n = 12
    # calls, an order statistic that barely depends on the seed.
    census_sizes, plan = (
        ((3, 4), ((5, 3, 2), (6, 1, 2), (7, 1, 2))) if smoke
        else ((4, 5), ((8, 25, 4), (10, 4, 8), (12, 20, 8)))
    )
    items = [
        census_item(f"census/max_reset_threshold_exhaustive({n})", n, CENSUS_MAX[n],
                    workdir / f"census-{n}.jsonl")
        for n in census_sizes
    ]
    rng = random.Random(seed)
    for n, calls, trials in plan:
        for _ in range(calls):
            exp_seed = rng.getrandbits(63)
            cfg = search.SearchConfig(
                n=n, mode=search.SearchMode.RANDOM, trials=trials, seed=exp_seed,
                output_path=workdir / f"rrt-{n}-{exp_seed}.jsonl",
            )
            items.append(rrt_item(f"census/random_rt_experiment(n={n},seed={exp_seed})", cfg))
    return items


def exact(seed: int, smoke: bool, call, workdir: Path) -> list[Item]:
    # Thirty seeded automata, each cheaper than every family item from n = 16
    # up, hold the median.  Ten items cost twice or more what any other item
    # does, so the tail item is the costliest of the rest: rystsov(15), a
    # pure-Python call, rather than the page-fault-bound numpy potential check.
    sizes, rystsov_sizes, random_n, random_count = (
        ((5, 6, 7), (5, 6, 7), 5, 6) if smoke
        else ((15, 16, 17, 18), (15, 16, 17, 18), 14, 30)
    )
    extra_cerny = 8 if smoke else 19
    rng = random.Random(seed)
    items = [
        exact_item(f"exact/random(n={random_n},#{index})",
                   _random_full_monoid_dfa(rng, random_n), None, False)
        for index in range(random_count)
    ]
    v_dfas = {n: _family(call, sk.v, n) for n in sizes}
    for n, d in v_dfas.items():
        items.append(potential_item(f"exact/potential_lower_bound(v({n}))", d, n * (n - 1) // 2))
    for n, d in v_dfas.items():
        items.append(exact_item(f"exact/cerny({n})", _family(call, sk.cerny, n), (n - 1) ** 2, True))
        items.append(exact_item(f"exact/v({n})", d, n * (n - 1) // 2, True))
    for n in rystsov_sizes:
        items.append(exact_item(f"exact/rystsov({n})", _family(call, sk.rystsov, n), None, True))
    items.append(exact_item(f"exact/cerny({extra_cerny})", _family(call, sk.cerny, extra_cerny),
                            (extra_cerny - 1) ** 2, True))
    return items


def construct(seed: int, smoke: bool, call, workdir: Path) -> list[Item]:
    if smoke:
        cerny_sizes, v_sizes, cb_sizes, monoid_sizes, f_sizes = (10,), (8,), (10, 12), (6,), (11, 13)
    else:
        cerny_sizes = (100, 150)
        v_sizes = (60, 80, 100)
        cb_sizes = tuple(range(50, 201, 25))
        monoid_sizes = (20, 25, 30)
        f_sizes = (41, 45, 51, 59)
    items = []
    for n in cerny_sizes:
        d = _family(call, sk.cerny, n)
        items.append(word_item(f"construct/pairchase_reset_word(cerny({n}))",
                               "sync.pairchase_reset_word", sync.pairchase_reset_word,
                               (d,), d, (n - 1) ** 2, None))
    for n in v_sizes:
        d = _family(call, sk.v, n)
        rt = n * (n - 1) // 2
        items.append(word_item(f"construct/pairchase_reset_word(v({n}))",
                               "sync.pairchase_reset_word", sync.pairchase_reset_word,
                               (d,), d, rt, None))
        items.append(word_item(f"construct/extension_reset_word(v({n}))",
                               "sync.extension_reset_word", sync.extension_reset_word,
                               (d,), d, rt, 2 * n * n - 6 * n + 5))
    for n in cb_sizes:
        for k in sorted({2, n // 3, n // 2, n - 1}):
            d = _family(call, sk.cb, n, k)
            bound = 4 * n * math.ceil(math.log2(n)) - 1
            items.append(word_item(f"construct/cb_reset_word({n},{k})",
                                   "sync.cb_reset_word", sync.cb_reset_word,
                                   (n, k), d, 0, bound))
    for n in monoid_sizes:
        items.append(monoid_item(f"construct/has_full_transition_monoid(v({n}))",
                                 _family(call, sk.v, n)))
    for n in f_sizes:
        items += pair_items("construct", n, _family(call, sk.f, n), n % 4 == 3)
    return items


BUILDERS = {"census": census, "exact": exact, "construct": construct}
