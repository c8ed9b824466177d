"""End-to-end acceptance checks, one test (and one printed verdict line) per
criterion.  Run with ``pytest -v tests/test_acceptance.py`` for the
line-per-criterion view; ``-s`` additionally shows the verdict lines of
passing criteria.

The two large census tiers carry the ``extended`` marker (excluded by the
default ``pytest`` invocation): six states finishes in about ten seconds,
and the seven-state tier — about 4.5 minutes with two workers — additionally wants
``SYNCHROKIT_CENSUS_N7=1`` plus, optionally, ``SYNCHROKIT_CENSUS_N7_JOURNAL``
pointing at a resumable journal file.
"""

import math
import os
import random

import pytest

from synchrokit.core import StateSet, Word, apply_word
from synchrokit.families import cb, f, v
from synchrokit.pairgraph import (
    build_pair_digraph,
    diameter,
    extremal_pair_word,
    pair_certificate,
    pair_distance,
    verify_certificate,
)
from synchrokit.search import (
    SearchConfig,
    SearchMode,
    canonical_form,
    max_reset_threshold_exhaustive,
    random_rt_experiment,
)
from synchrokit.sync import (
    NOT_SYNCHRONIZING,
    _stratify,
    cb_reset_word,
    extension_reset_word,
    potential_lower_bound,
    reset_threshold_exact,
)

from conftest import random_dfa, singleton, strongly_connected_at


def _verdict(num: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num}: {status} - {description}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def _resets(d, w: Word) -> bool:
    # independent plain-set oracle for the verified flags, which core.apply_word computes
    images = [t.images for t in d.transformations()]
    current = set(range(d.n))
    for i in w:
        img = images[i]
        current = {img[q] for q in current}
    return len(current) == 1


def test_criterion_1_exhaustive_census_small_sizes():
    failures = []
    expected = {2: 1, 3: 4, 4: 8, 5: 14}
    for n, want in expected.items():
        max_rt, record = max_reset_threshold_exhaustive(n)
        if max_rt != want:
            failures.append(f"n={n}: max rt {max_rt} != {want}")
        try:
            record.verify()
        except ValueError as exc:
            failures.append(f"n={n}: record failed verification: {exc}")
    _verdict(1, "exhaustive census maxima are 1, 4, 8, 14 for n = 2..5", failures)


@pytest.mark.extended
def test_criterion_1_extended_census_six_states():
    failures = []
    max_rt, record = max_reset_threshold_exhaustive(6)
    if max_rt != 19:
        failures.append(f"n=6: max rt {max_rt} != 19")
    record.verify()
    _verdict(1, "extended census: six-state maximum is 19", failures)


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("SYNCHROKIT_CENSUS_N7") != "1",
    reason="about 4.5 minutes with two workers; set SYNCHROKIT_CENSUS_N7=1 (and optionally "
    "SYNCHROKIT_CENSUS_N7_JOURNAL=<path> to resume a saved journal)",
)
def test_criterion_1_extended_census_seven_states():
    journal = os.environ.get("SYNCHROKIT_CENSUS_N7_JOURNAL")
    max_rt, record = max_reset_threshold_exhaustive(
        7, workers=2, output_path=journal, resume=journal is not None
    )
    failures = [] if max_rt == 27 else [f"n=7: max rt {max_rt} != 27"]
    record.verify()
    _verdict(1, "extended census: seven-state maximum is 27", failures)


def test_criterion_2_merge_family_thresholds_with_certified_lower_bounds():
    failures = []
    for n in range(3, 11):
        d = v(n)
        want = n * (n - 1) // 2
        exact = reset_threshold_exact(d)
        if exact is NOT_SYNCHRONIZING or exact[0] != want:
            failures.append(f"n={n}: rt != {want}")
            continue
        pb = potential_lower_bound(d, list(range(n)), singleton(n, 0))
        if not pb.valid:
            failures.append(f"n={n}: potential bound invalid: {pb.counterexample}")
        elif pb.bound != want:
            failures.append(f"n={n}: certified bound {pb.bound} != {want}")
    # past the subset BFS: the certified bound from below meets a verified
    # reset word of the same length from above, so rt(v(n)) = n(n-1)/2
    for n in (20, 50, 100):
        d = v(n)
        want = n * (n - 1) // 2
        pb = potential_lower_bound(d, list(range(n)), singleton(n, 0))
        if not pb.valid or pb.bound != want:
            failures.append(f"n={n}: certified bound {pb.bound} != {want}")
        r = extension_reset_word(d)
        if not r.verified or not _resets(d, r.word) or r.length != want:
            failures.append(f"n={n}: extension word of length {r.length} is not a {want}-letter reset word")
    _verdict(2, "rt of the merge family is n(n-1)/2 for n = 3..10, 20, 50, 100, certified below", failures)


def test_criterion_3_three_letter_words_beat_the_log_bound():
    failures = []
    for n in range(3, 201):
        budget = 4 * n * math.ceil(math.log2(n))
        for k in sorted({1, 2, n // 2, n - 1} - {0}):
            r = cb_reset_word(n, k)
            if not r.verified or not _resets(cb(n, k), r.word):
                failures.append(f"(n={n}, k={k}): word does not reset")
            if r.length >= budget:
                failures.append(f"(n={n}, k={k}): length {r.length} >= {budget}")
    # with the swap next to the merge edge the synthesized word is optimal
    for n in range(3, 12):
        r = cb_reset_word(n, 1)
        exact = reset_threshold_exact(cb(n, 1))[0]
        if r.length != exact:
            failures.append(f"(n={n}, k=1): length {r.length} != exact rt {exact}")
    _verdict(3, "three-letter family words verify and stay under 4n*ceil(log2 n)", failures)


def test_criterion_4_extension_algorithm_and_stratification():
    failures = []
    for n in range(4, 41):
        bound = 2 * n * n - 6 * n + 5
        for label, d in (("v", v(n)), ("cb", cb(n, n // 2))):
            r = extension_reset_word(d)
            if not r.verified or not _resets(d, r.word):
                failures.append(f"{label}(n={n}): word does not reset")
            if r.length > bound:
                failures.append(f"{label}(n={n}): length {r.length} > {bound}")
            levels = _stratify(d)[0]
            if not strongly_connected_at(levels[: 2 * n - 2], n):
                failures.append(f"{label}(n={n}): level {2 * n - 3} not strongly connected")
    _verdict(4, "extension words stay under 2n^2-6n+5 and level 2n-3 is one component", failures)


def test_criterion_5_pair_distances_and_diameters():
    failures = []
    dist, word = pair_distance(build_pair_digraph(f(7)), (1, 3), (3, 6))
    if dist != 15 or len(word) != 15:
        failures.append(f"7-state distance q2q4 -> q4q7 is {dist}, want 15")
    for n in range(11, 21, 2):
        offset = 28 if n % 4 == 3 else 30
        want = (n * n + 5 * n - offset) // 4
        got = diameter(build_pair_digraph(f(n))).value
        if got != want:
            failures.append(f"n={n}: diameter {got} != {want}")
    _verdict(5, "pair distance 15 at n=7; diameters for n = 11..19 match closed forms", failures)


def test_criterion_6_descent_certificates_are_valid_and_tight():
    failures = []
    for n in (7, 11, 15, 19):
        cert = pair_certificate(n)
        p = build_pair_digraph(f(n))
        if not verify_certificate(p, cert).valid:
            failures.append(f"n={n}: certificate invalid")
            continue
        dist, _ = pair_distance(p, cert.start, cert.target)
        if dist != cert.bound():
            failures.append(f"n={n}: bfs {dist} != bound {cert.bound()}")
        if n >= 11:
            w = extremal_pair_word(n)
            if len(w) != cert.bound():
                failures.append(f"n={n}: extremal word length {len(w)} != {cert.bound()}")
            reached = cert.start
            for letter in w:
                t = f(n).transformation(letter)
                reached = tuple(sorted((t(reached[0]), t(reached[1]))))
            if reached != cert.target:
                failures.append(f"n={n}: extremal word lands on {reached}")
    _verdict(6, "certificates check at n = 7, 11, 15, 19 and extremal words are tight", failures)


def test_criterion_7_structural_properties_and_reproducibility(tmp_path):
    failures = []
    rng = random.Random(20240917)

    # canonical form: idempotent and threshold-preserving on 100 random
    # five-state automata with two letters
    for i in range(100):
        d = random_dfa(rng, 5, 2)
        canon = canonical_form(d)
        if canonical_form(canon) != canon:
            failures.append(f"case {i}: canonical form is not idempotent")
        before, after = reset_threshold_exact(d), reset_threshold_exact(canon)
        same = (
            (before is NOT_SYNCHRONIZING and after is NOT_SYNCHRONIZING)
            or (
                before is not NOT_SYNCHRONIZING
                and after is not NOT_SYNCHRONIZING
                and before[0] == after[0]
            )
        )
        if not same:
            failures.append(f"case {i}: canonical form changed the reset threshold")

    # words act by composition: u + v equals u then v on 10^4 random cases
    for i in range(10_000):
        n = rng.randint(1, 6)
        d = random_dfa(rng, n, rng.randint(1, 3))
        u = Word(tuple(rng.randrange(d.m) for _ in range(rng.randint(0, 5))))
        vv = Word(tuple(rng.randrange(d.m) for _ in range(rng.randint(0, 5))))
        s = StateSet(n, rng.randrange(1, 1 << n))
        if apply_word(s, d, u + vv) != apply_word(apply_word(s, d, u), d, vv):
            failures.append(f"case {i}: split application disagrees")
            break

    # seeded experiment runs are byte-identical
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for out in (out1, out2):
        cfg = SearchConfig(n=8, mode=SearchMode.RANDOM, trials=25, seed=9, output_path=out)
        random_rt_experiment(cfg)
    if out1.read_bytes() != out2.read_bytes():
        failures.append("seeded experiment reruns differ")

    _verdict(7, "canonical-form and word-action properties hold; reruns are byte-identical", failures)


def test_criterion_8_random_full_monoid_experiment():
    cfg = SearchConfig(n=10, mode=SearchMode.RANDOM, trials=500, seed=42)
    summary = random_rt_experiment(cfg)
    failures = []
    if summary["synchronizing"] != 500 or summary["not_synchronizing"] != 0:
        failures.append(
            f"only {summary['synchronizing']}/500 trials synchronize"
        )
    if summary["max"] > 81:
        failures.append(f"max rt {summary['max']} exceeds (n-1)^2 = 81")
    _verdict(8, "500 seeded ten-state trials all synchronize with max rt <= 81", failures)
