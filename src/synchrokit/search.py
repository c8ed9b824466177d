"""Census and sampling experiments over automata with full transition monoid.

Two kinds of experiment live here.  The exhaustive census enumerates every
automaton made of two permutation letters generating the symmetric group plus
one letter of rank ``n - 1``, reduced up to isomorphism, and reports the
largest exact reset threshold.  The randomized experiments sample permutation
pairs with a seeded Fisher-Yates shuffle and measure reset thresholds or
pair-digraph diameters, with bit-for-bit reproducible output files.

Isomorphism reduction works in two stages.  The rank-``(n-1)`` letter is
first normalized so that its excluded state is 1 and its duplicated state is
0; the leftover symmetry is then the pointwise stabilizer of ``{0, 1}``
combined with swapping the two permutation letters.  A first letter that is
not minimal in its orbit under that residual group is skipped, and so is a
permutation pair that some residual symmetry maps to a smaller one whatever
the rank letter.  The rank letters are not reduced by symmetry: a
symmetry fixing the pair maps a rank letter to a conjugate with the same
threshold, so the block maximum and its first candidate in enumeration
order stay the same with or without them.  One subset BFS per permutation
pair covers the rank letters at once, less those that cannot beat the block
maximum so far: a letter whose two-letter automaton with either
permutation resets by then (see :func:`_census_block`).
The minimal representative over the *full* relabeling group is available
separately as :func:`canonical_form`.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Dfa,
    Transformation,
    Word,
    _cycles,
    _json_int,
    dfa_from_json_dict,
    dfa_to_json_dict,
)
from .monoid import _generates_symmetric, _inv, _transitive_with_odd, cycle_lengths
from .pairgraph import build_pair_digraph, diameter
from .sync import (
    _mask_bits,
    _require_memory,
    _reset_distances,
    _resets,
    _subset_table,
    pairchase_reset_word,
    reset_threshold_exact,
)

FORMAT_VERSION = 1

#: Largest n at which ``random_rt_experiment`` records exact thresholds, not
#: pair-chase lengths: the experiment's policy, so that seeded files do not
#: depend on the machine, and not a memory limit.
_EXACT_TRIALS_MAX_N = 25

_Perm = tuple[int, ...]


class SearchMode(Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters shared by the census and the sampling experiments.

    ``trials`` and ``seed`` only matter in :data:`SearchMode.RANDOM`.
    """

    n: int
    mode: SearchMode
    trials: int = 0
    seed: int = 0
    output_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("experiments need at least two states")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class SearchRecord:
    """One census result: an automaton with its exact reset threshold.

    ``dfa`` is stored in canonical form and ``witness`` is the
    lexicographically least shortest reset word of that canonical automaton,
    so records compare equal across runs regardless of worker count.
    """

    dfa: Dfa
    rt: int
    witness: Word
    config: Mapping[str, object] | None = None

    def verify(self) -> None:
        if not _resets(self.dfa, self.witness) or len(self.witness) != self.rt:
            raise ValueError("record witness does not reset in rt steps")


def record_to_json_dict(record: SearchRecord) -> dict:
    return {
        "type": "record",
        "dfa": dfa_to_json_dict(record.dfa),
        "rt": record.rt,
        "witness": list(record.witness.names(record.dfa)),
        "timestamp": None,  # kept so that journals keep their bytes
        "config": dict(record.config) if record.config is not None else None,
    }


def record_from_json_dict(obj: Mapping[str, object]) -> SearchRecord:
    """Rebuild a record from its JSON form and re-verify the witness.

    A missing or malformed field, including a witness that is not a JSON
    list of letter names, raises ``ValueError``, as a bad witness does.
    """
    try:
        d = dfa_from_json_dict(obj["dfa"])
        if not isinstance(names := obj["witness"], list):
            raise TypeError(f"witness {names!r} is not a list")
        record = SearchRecord(
            dfa=d,
            rt=_json_int(obj["rt"]),
            witness=Word(tuple(d.letter_index(name) for name in names)),
            config=obj.get("config"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed record JSON: {exc}") from exc
    record.verify()
    return record


def _json_line(obj: Mapping[str, object]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


#: The line types after the header, per kind of results file.
_LINE_TYPES = {
    "max-rt-census": ("block", "record", "result"),
    "random-rt": ("trial", "summary"),
    "pair-diameter": ("trial", "summary"),
}
#: The header configs each kind of results file is written with, one per
#: mode: the type of every field, and the value of ``mode``.
_CONFIGS = {
    "max-rt-census": ({"n": int, "mode": "exhaustive"},),
    "random-rt": (
        {"n": int, "mode": "random", "trials": int, "seed": int,
         "sample_nonperm": bool, "require_symmetric": bool},
    ),
    "pair-diameter": (
        {"n": int, "mode": "exhaustive"},
        {"n": int, "mode": "random", "trials": int, "seed": int},
    ),
}
#: The line types that close a results file.
_CLOSING = ("result", "summary")
#: How every header line begins, as its keys are sorted.
_HEADER_START = b'{"config":{'


def _header_line(kind: str, config: dict) -> str:
    return _json_line({"type": "header", "format": FORMAT_VERSION, "kind": kind, "config": config})


@contextmanager
def _results_file(path: str | Path | None, header: str, append: bool = False) -> Iterator[Callable]:
    """``write(obj)``, which adds ``obj`` to the results file at ``path`` as
    one JSON line and flushes it, so that a crash loses at most the line
    being written.  The file is made anew with the ``header`` line, or with
    ``append`` extended as it stands; with no path nothing is written."""
    if path is None:
        yield lambda obj: None
        return
    with Path(path).open("a" if append else "w", encoding="ascii") as fh:
        if not append:
            print(header, end="", file=fh, flush=True)
        yield lambda obj: print(_json_line(obj), end="", file=fh, flush=True)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def canonical_form(d: Dfa) -> Dfa:
    """Minimum representative of ``d`` up to relabeling states and
    reordering letters of equal rank.

    Every bijection of the state set is applied; for each, letters are
    redistributed among the positions their rank class occupies so that the
    per-position sequence of image rows is smallest.  Letter names stay with
    their positions, so two relabelings of the same automaton (with the same
    name sequence) collapse to one representative.  Reset thresholds are
    invariant under both moves.
    """
    n = d.n
    rows = [t.images for t in d.transformations()]
    by_rank: dict[int, list[int]] = {}
    for pos, t in enumerate(d.transformations()):
        by_rank.setdefault(t.rank(), []).append(pos)
    best: tuple[_Perm, ...] | None = None
    for g in itertools.permutations(range(n)):
        relabeled = []
        for img in rows:
            out = [0] * n
            for q in range(n):
                out[g[q]] = g[img[q]]
            relabeled.append(tuple(out))
        placed: list[_Perm] = list(relabeled)
        for positions in by_rank.values():
            for pos, img in zip(positions, sorted(relabeled[p] for p in positions)):
                placed[pos] = img
        key = tuple(placed)
        if best is None or key < best:
            best = key
    assert best is not None
    return Dfa(
        n,
        tuple(
            (name, Transformation(images))
            for name, images in zip(d.letter_names(), best)
        ),
    )


# ---------------------------------------------------------------------------
# exhaustive reset-threshold census
# ---------------------------------------------------------------------------


def _normalized_rank_letters(n: int) -> tuple[_Perm, ...]:
    """All rank-``(n-1)`` image rows with excluded state 1 and duplicate 0.

    Two states land on 0 and the rest hit ``2..n-1`` bijectively, so every
    conjugacy class of rank-``(n-1)`` letters appears and none misses 1.
    """
    out = []
    for i, j in itertools.combinations(range(n), 2):
        rest = [q for q in range(n) if q != i and q != j]
        for values in itertools.permutations(range(2, n)):
            img = [0] * n
            for q, v in zip(rest, values):
                img[q] = v
            out.append(tuple(img))
    out.sort()
    return tuple(out)


def _residual_group(n: int) -> tuple[tuple[_Perm, _Perm], ...]:
    """Pairs ``(g, g^{-1})`` for every state bijection fixing 0 and 1."""
    fixing = ((0, 1) + tail for tail in itertools.permutations(range(2, n)))
    return tuple((g, _inv(g)) for g in fixing)


def _conjugate(p: _Perm, g: _Perm, ginv: _Perm) -> _Perm:
    """Image rows of ``p`` after relabeling every state ``q`` as ``g[q]``."""
    return tuple([g[p[q]] for q in ginv])


@lru_cache(maxsize=4)
def _census_context(n: int) -> tuple:
    """Permutations, residual group, rank letters, the letters' moves, the
    permutations' two-letter thresholds, and their ``rank`` and ``least``
    tables.

    ``moves[S]`` lists the pairs ``(X, mask)`` where bit r of ``mask`` is set
    when rank letter r (in :func:`_normalized_rank_letters` order) maps the
    subset ``S`` onto ``X``.  ``rank[p]`` is the index of ``p`` in the sorted
    permutations and ``least[r]`` the rank of the least residual conjugate
    of permutation r.  ``resets[r]`` is a pair ``(rts, relabel)`` whose
    ``rts[relabel]`` holds, for each rank letter t, the reset threshold of
    the automaton ``(perms[r], t)``, 255 when it never resets (a threshold
    is at most (n^3 - n) / 6 by Pin and Frankl, so below 255 up to n = 11).
    :func:`_reset_levels` runs only on the least permutation of each
    residual orbit, whose ``relabel`` is the identity: a symmetry g fixing 0
    and 1 gives g p g^-1 and t the threshold of p and g^-1 t g, and
    ``relabel`` lists the index of g^-1 t g for each t.
    """
    rank_letters = _normalized_rank_letters(n)
    # each mask's bits are set in a bytearray and made an int once, as an
    # int OR per letter would copy the whole mask every time
    size = (len(rank_letters) + 7) // 8
    targets: list[dict[int, bytearray]] = [{} for _ in range(1 << n)]
    for r, t in enumerate(rank_letters):
        byte, bit = r >> 3, 1 << (r & 7)
        for row, x in zip(targets, _subset_table([1 << q for q in t])):
            if (bits := row.get(x)) is None:
                bits = row[x] = bytearray(size)
            bits[byte] |= bit
    moves = []
    for row in targets:
        moves.append(tuple((x, int.from_bytes(bits, "little")) for x, bits in row.items()))
        row.clear()  # frees the row's bytearrays before the next row's ints are made
    perms = tuple(sorted(itertools.permutations(range(n))))
    residual = _residual_group(n)
    # rank letters as base-n codes, ascending as the letters are sorted
    m = len(rank_letters)
    letters = np.array(rank_letters, dtype=np.intp)
    powers = n ** np.arange(n - 1, -1, -1)
    codes = letters @ powers
    relabels = [
        np.searchsorted(codes, np.take(ginv, letters[:, g]) @ powers).astype(np.min_scalar_type(m))
        for g, ginv in residual
    ]
    rank = {p: r for r, p in enumerate(perms)}
    least = [-1] * len(perms)
    resets: list = [None] * len(perms)
    for r, p in enumerate(perms):
        if least[r] < 0:  # orbits are met in sorted order: r is its least
            table = _subset_table([1 << q for q in p])
            rts = np.full(m, 255, np.uint8)
            for level, bits in enumerate(_reset_levels(table, table, moves, (1 << m) - 1)[0]):
                rts[_mask_bits(bits, m)] = level
            for (g, ginv), relabel in zip(residual, relabels):
                if least[c := rank[_conjugate(p, g, ginv)]] < 0:
                    least[c], resets[c] = r, (rts, relabel)
    return perms, residual, rank_letters, moves, resets, rank, least


def _pack(mask: np.ndarray) -> int:
    """The boolean array ``mask`` as the bits of an int, entry 0 lowest."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _residual_orbit_count(n: int) -> int:
    """Orbits of S_n under conjugation by the residual group, by Burnside's
    lemma: the sum of (f + 1)(f + 2) over the cycle types of S_{n-2}, f the
    fixed points, as a symmetry's centralizer in S_n is (f + 1)(f + 2) times
    that in S_{n-2}; the types with f fixed points are the partitions of
    n - 2 - f into parts of at least 2 (``no_ones``)."""
    k = n - 2
    no_ones = [1] + [0] * k
    for part in range(2, k + 1):
        for j in range(part, k + 1):
            no_ones[j] += no_ones[j - part]
    return sum((f + 1) * (f + 2) * no_ones[k - f] for f in range(k + 1))


def _census_bytes(n: int, workers: int) -> int:
    """Upper estimate of the census's memory at ``n`` states.

    The parent's pending ``(n, p1)`` tuples take 104 + 8n bytes per
    permutation.  Each of the ``workers`` processes running blocks holds its
    own :func:`_census_context`: the n! sorted permutations (48 + 8n bytes
    each) with their ``rank``, ``least`` and ``resets`` entries (192 bytes:
    a dict entry of up to 58 bytes while it resizes, an int, two list slots
    and a pair), m = n!/2 rank letters (48 + 8n bytes each) and, for each of
    the C(2n-1, n-1) + C(2n-2, n-2) subset moves, 200 bytes of entry and a
    mask of up to m bits at 7.5 bits per byte.  The thresholds add numpy
    arrays of 112 bytes plus their data: m indices for each of the (n-2)!
    residual symmetries, and m bytes for each residual orbit (see
    :func:`_residual_orbit_count`), while 32mn bytes of codes make the
    indices.  9 KB cover the fixed parts of its containers and numpy's,
    which dominate at n = 2: tracemalloc measured a 7.8 KB peak there.  At
    n = 8 that is 79 MB per context, where tracemalloc measured a 72 MB
    peak; at n = 9 it is 4.8 GB and at n = 10 328 GB.
    """
    perms = math.factorial(n)
    moves = math.comb(2 * n - 1, n - 1) + math.comb(2 * n - 2, n - 2)
    symmetries, m = math.factorial(n - 2), perms // 2
    orbits = _residual_orbit_count(n)
    thresholds = symmetries * (m * np.min_scalar_type(m).itemsize + 112) + orbits * (m + 112)
    context = (
        9 * 1024 + perms * ((48 + 8 * n) * 3 // 2 + 192) + moves * (200 + perms // 15)
        + thresholds + 32 * m * n
    )
    return perms * (104 + 8 * n) + workers * context


def _dead_pair(p1: _Perm, p2: _Perm, residual: Sequence[tuple[_Perm, _Perm]]) -> bool:
    """Whether some residual symmetry maps every triple ``(p1, p2, t)`` to a
    strictly smaller one, whatever ``t`` is."""
    for g, ginv in residual:
        c1 = _conjugate(p1, g, ginv)
        c2 = _conjugate(p2, g, ginv)
        if (c1 == p1 and c2 < p2) or c2 < p1 or (c2 == p1 and c1 < p2):
            return True
    return False


def _reset_levels(
    table1: list[int], table2: list[int], moves: list, live: int
) -> tuple[list[int], int]:
    """One subset BFS for the automata ``(p1, p2, t_r)`` of every bit r of ``live``.

    ``rows[S]`` has bit r set when ``S`` is on the current level of
    automaton r, and ``seen[S]`` holds the bits that have visited ``S``.  A
    bit retires once its automaton reaches a singleton.  Returns
    ``(retiring, never)``: ``retiring[k]`` holds the bits that retire at
    level k, whose automata have reset threshold k, and ``never`` the bits
    still live when the levels run out, whose automata never reset.  When
    ``never`` is empty, the last entry holds the bits of the largest
    threshold.  With ``table1 == table2`` it measures the two-letter
    automata ``(p1, t_r)``.
    """
    size = len(table1)
    seen = [0] * size
    seen[-1] = live
    rows = [(size - 1, live)]
    retiring = [0]
    while rows:
        reached = [0] * size
        for s, bits in rows:
            reached[table1[s]] |= bits
            reached[table2[s]] |= bits
            for x, mask in moves[s]:
                if hit := bits & mask:
                    reached[x] |= hit
        rows = []
        retired = 0
        for x, bits in enumerate(reached):
            if bits and (bits := bits & ~seen[x]):
                seen[x] |= bits
                if x & (x - 1):
                    rows.append((x, bits))
                else:
                    retired |= bits
        retiring.append(retired)
        if retired:
            live &= ~retired
            rows = [(x, bits & live) for x, bits in rows if bits & live]
    return retiring, live


def _census_block(args: tuple[int, _Perm]) -> tuple[_Perm, int, _Perm | None, _Perm | None]:
    """Process every candidate whose first permutation letter is ``p1``.

    Returns ``(p1, block_max_rt, p2, t)`` where the last three describe the
    first enumeration-order candidate attaining the block maximum (``-1``
    and ``None`` when the block is empty).  One subset BFS per ``p2`` covers
    its rank letters, and the lowest bit retiring last is the first of them.

    The filters run cheapest first.  ``p1`` must be least in its residual
    orbit, and the pair must survive :func:`_dead_pair`, which the least
    conjugate ranks settle unless ``p2`` lies in the orbit of ``p1`` or a
    residual symmetry other than the identity fixes ``p1``.  Then the pair
    must be transitive with an odd letter, steps 1-2 of the recognizer.
    The BFS covers only the rank letters t whose two-letter automata
    ``(p1, t)`` and ``(p2, t)`` both have thresholds above the block maximum
    so far (never resetting counts as above), and does not run when there
    is none.  This is exact: adding a letter only shortens reset words, so
    a dropped letter's automaton ``(p1, p2, t)`` resets by the block
    maximum and can neither raise it nor retire at it; and a letter whose
    three-letter automaton never resets never resets with either letter
    alone, so it is always kept.  The recognizer itself runs only on a
    pair whose BFS beats the block maximum: a pair that does not can never
    change the result, whether it generates the symmetric group or not.  A
    pair with an automaton that never resets cannot generate it, as then
    the transition monoid would be full; that is asserted.
    """
    n, p1 = args
    perms, residual, rank_letters, moves, resets, rank, least = _census_context(n)
    r1 = rank[p1]
    if least[r1] != r1:
        return p1, -1, None, None
    fixed = any(_conjugate(p1, g, ginv) == p1 for g, ginv in residual[1:])
    table1 = _subset_table([1 << q for q in p1])
    rts1 = resets[r1][0]  # the identity relabels the least of an orbit
    best_rt = -1
    best_p2: _Perm | None = None
    best_t: _Perm | None = None
    for r2 in range(r1, len(perms)):
        l2 = least[r2]
        if l2 < r1:
            continue
        p2 = perms[r2]
        if (fixed or l2 == r1) and _dead_pair(p1, p2, residual):
            continue
        if not _transitive_with_odd((p1, p2), n):
            continue
        rts2, relabel = resets[r2]
        if not (live := _pack(np.minimum(rts1, rts2[relabel]) > best_rt)):
            continue
        retiring, never = _reset_levels(table1, _subset_table([1 << q for q in p2]), moves, live)
        if never:
            assert not _generates_symmetric((p1, p2), n), "a full-monoid automaton never resets"
        elif len(retiring) - 1 > best_rt and _generates_symmetric((p1, p2), n):
            best_rt, retired = len(retiring) - 1, retiring[-1]
            best_p2 = p2
            best_t = rank_letters[(retired & -retired).bit_length() - 1]
    return p1, best_rt, best_p2, best_t


def _dfa(n: int, *letters: _Perm) -> Dfa:
    """The automaton whose letters ``a``, ``b``, ... have these image rows."""
    return Dfa(n, tuple((name, Transformation(p)) for name, p in zip("abc", letters)))


def _census_record(n: int, p1: _Perm, p2: _Perm, t: _Perm, expected_rt: int) -> SearchRecord:
    canon = canonical_form(_dfa(n, p1, p2, t))
    result = reset_threshold_exact(canon)
    assert result is not None and result[0] == expected_rt
    config = {"n": n, "mode": SearchMode.EXHAUSTIVE.value}
    return SearchRecord(dfa=canon, rt=expected_rt, witness=result[1], config=config)


def _read_census_journal(path: Path, header: str, n: int) -> list[tuple[str, object]]:
    """The entries of an interrupted census journal for ``n`` states, whose
    header line is ``header``; none when not even that line is complete.

    A final line cut off mid-write, as after a crash, is truncated away once
    :func:`_journal` has checked the complete lines.
    """
    entries, cut = _journal(path)
    if not entries:
        if not header.encode("ascii").startswith(cut):
            raise ValueError(f"{path} is not a census journal")
        return []
    if entries[0][1]["kind"] != "max-rt-census":
        raise ValueError(f"{path} is not a census journal")
    if entries[0][1]["config"].get("n") != n:
        raise ValueError(f"{path} was produced for a different n")
    if cut:
        os.truncate(path, path.stat().st_size - len(cut))
    return entries


def max_reset_threshold_exhaustive(
    n: int,
    *,
    workers: int = 1,
    output_path: str | Path | None = None,
    resume: bool = True,
) -> tuple[int, SearchRecord]:
    """Largest exact reset threshold over all automata with two permutation
    letters generating the symmetric group and one letter of rank ``n - 1``.

    Work is split into blocks by the first permutation letter and blocks are
    reduced in sorted order, so the stream of new-maximum records (and the
    returned record) does not depend on ``workers``.  With ``output_path``
    the run appends a JSON-lines journal — header, one line per finished
    block, one record per new maximum, and a final result line — and
    ``resume`` replays completed blocks from an existing journal instead of
    recomputing them; a final journal line cut off mid-write is dropped
    and its work redone, so the resumed journal ends byte-identical to an
    uninterrupted run's.

    Each of the n! first letters makes one block, whose cheap filters run
    before its subset BFS, whose BFS covers only the rank letters that can
    beat the block maximum, and whose symmetric-group test runs only on a
    new block maximum (see :func:`_census_block`).  On a 2-core host n = 6
    took 3.4-4.3 s in one process, n = 7 116 s with two workers, and the
    n = 8 context alone 34 s, most of it in the two-letter thresholds of its
    150 residual orbits.  A run whose :func:`_census_bytes` estimate (4.8 GB
    at n = 9, 328 GB at n = 10, one context more per extra worker) exceeds
    physical memory is refused with ``ValueError`` before it allocates or
    writes anything.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    SearchConfig(n=n, mode=SearchMode.EXHAUSTIVE, output_path=output_path)  # validates n
    _require_memory(n, _census_bytes(n, workers))
    header = _header_line("max-rt-census", {"n": n, "mode": SearchMode.EXHAUSTIVE.value})
    path = Path(output_path) if output_path is not None else None
    entries = (
        _read_census_journal(path, header, n)
        if path is not None and resume and path.exists() else []
    )
    done = {p1 for kind, p1 in entries if kind == "block"}
    records = [record for kind, record in entries if kind == "record"]
    best = records[-1] if records else None
    best_rt = best.rt if best is not None else -1
    if entries and entries[-1][0] == "result":
        return best_rt, best
    with _results_file(path, header, append=bool(entries)) as write:
        pending = [(n, p1) for p1 in itertools.permutations(range(n)) if p1 not in done]
        parallel = workers > 1 and len(pending) > 1
        with multiprocessing.Pool(workers) if parallel else nullcontext() as pool:
            for p1, block_rt, p2, t in (pool.imap if parallel else map)(_census_block, pending):
                if block_rt > best_rt:
                    assert p2 is not None and t is not None
                    best_rt, best = block_rt, _census_record(n, p1, p2, t, block_rt)
                    write(record_to_json_dict(best))
                write({"type": "block", "p1": list(p1)})
        if best is None:
            raise RuntimeError("census found no candidate automata")
        write({"type": "result", "max_rt": best_rt})
    return best_rt, best


# ---------------------------------------------------------------------------
# randomized reset-threshold experiment
# ---------------------------------------------------------------------------


def _sampled_pair(rng: random.Random, n: int) -> tuple[_Perm, _Perm]:
    """Two permutations, drawn one after the other by Fisher-Yates shuffles."""
    first, second = list(range(n)), list(range(n))
    rng.shuffle(first)
    rng.shuffle(second)
    return tuple(first), tuple(second)


def _default_merge_letter(n: int) -> _Perm:
    """Rank-``(n-1)`` letter sending state 1 to 0 and fixing the rest."""
    return (0, 0) + tuple(range(2, n))


def _sampled_rank_letter(rng: random.Random, n: int) -> _Perm:
    """Uniformly random rank-``(n-1)`` letter."""
    i, j = sorted(rng.sample(range(n), 2))
    values = list(range(n))
    rng.shuffle(values)
    img = [0] * n
    img[i] = img[j] = values[0]
    rest = (q for q in range(n) if q != i and q != j)
    for q, v in zip(rest, values[1:]):
        img[q] = v
    return tuple(img)


def _statistics(counts: Counter[int | None]) -> dict:
    """``max``, ``mean`` and ``p99`` of the values ``counts`` counts, where
    ``None`` counts a trial without one; all ``None`` when there is none."""
    values = sorted((v, k) for v, k in counts.items() if v is not None)
    if not (total := sum(k for _, k in values)):
        return {"max": None, "mean": None, "p99": None}
    ranks = itertools.accumulate(k for _, k in values)  # of each value's last trial
    p99 = next(v for (v, _), rank in zip(values, ranks) if rank >= math.ceil(0.99 * total))
    return {"max": values[-1][0], "mean": sum(v * k for v, k in values) / total, "p99": p99}


def random_rt_experiment(
    cfg: SearchConfig,
    *,
    sample_nonperm: bool = False,
    require_symmetric: bool = True,
) -> dict:
    """Reset thresholds of automata built from random permutation pairs.

    Each trial draws two permutations by seeded Fisher-Yates shuffle and
    attaches a rank-``(n-1)`` letter — by default the fixed merge of states
    0 and 1, or a sampled one with ``sample_nonperm``.  By default a draw is
    rejected and repeated until the two permutations generate the symmetric
    group, which keeps every sampled automaton synchronizing;
    ``require_symmetric=False`` keeps unconditioned draws, of which roughly a
    ``1/n`` fraction fail to synchronize.  Up to :data:`_EXACT_TRIALS_MAX_N`
    states the threshold is exact, from the forward pass of
    ``reset_threshold_exact``'s subset BFS run over all trials at once, in
    batches that each check their memory (``ValueError`` when one cannot
    fit); beyond, it is the pair-chase word length, an upper bound.  The
    summary reports max/mean/99th-percentile and the fraction of
    synchronizing samples at or below ``C * n * log2(n)`` for C in 1, 2, 4.
    With ``output_path`` the header, the trials (pair-chase ones as they are
    measured, exact ones once their search is done) and the summary are
    written as JSON lines with no timestamps, so identical configs produce
    identical bytes.
    """
    if cfg.mode is not SearchMode.RANDOM:
        raise ValueError("random_rt_experiment needs a RANDOM-mode config")
    n = cfg.n
    rng = random.Random(cfg.seed)
    dfas: list[Dfa] = []
    resampled = 0
    for _ in range(cfg.trials):
        p1, p2 = _sampled_pair(rng, n)
        while require_symmetric and not _generates_symmetric((p1, p2), n):
            resampled += 1
            p1, p2 = _sampled_pair(rng, n)
        t = _sampled_rank_letter(rng, n) if sample_nonperm else _default_merge_letter(n)
        dfas.append(_dfa(n, p1, p2, t))
    config = {"n": n, "mode": cfg.mode.value, "trials": cfg.trials, "seed": cfg.seed}
    config.update(sample_nonperm=sample_nonperm, require_symmetric=require_symmetric)
    distances = _reset_distances(dfas) if n <= _EXACT_TRIALS_MAX_N else map(_pairchase_length, dfas)
    counts: Counter[int | None] = Counter()
    with _results_file(cfg.output_path, _header_line("random-rt", config)) as write:
        for index, rt in enumerate(distances):
            counts[rt] += 1
            write(_rt_trial(config, index, rt))
        summary = _rt_summary(config, counts, resampled)
        write({"type": "summary", **summary})
    return summary


def _pairchase_length(d: Dfa) -> int | None:
    try:
        return pairchase_reset_word(d).length
    except ValueError:  # not synchronizing
        return None


def _rt_method(n: int) -> str:
    return "exact_bfs" if n <= _EXACT_TRIALS_MAX_N else "pairchase"


def _rt_trial(config: Mapping, index: int, rt: int | None) -> dict:
    method = _rt_method(config["n"])
    return dict(type="trial", trial=index, synchronizing=rt is not None, rt=rt, method=method)


def _rt_summary(config: Mapping, counts: Counter[int | None], resampled: int) -> dict:
    """The summary for header ``config`` and the thresholds ``counts`` counts
    (``None`` for a draw that never resets) with ``resampled`` draws."""
    n = config["n"]
    lengths = [(rt, k) for rt, k in counts.items() if rt is not None]
    synchronizing, budget = sum(k for _, k in lengths), n * math.log2(n)
    within = {c: sum(k for rt, k in lengths if rt <= c * budget) for c in (1, 2, 4)}
    return {
        **{key: config[key] for key in ("n", "mode", "trials", "seed")},
        "method": _rt_method(n),
        "resampled": resampled,
        "synchronizing": synchronizing,
        "not_synchronizing": counts[None],
        **_statistics(counts),
        "fraction_le_c_n_log2_n": (
            {str(c): k / synchronizing for c, k in within.items()} if synchronizing else None
        ),
    }


# ---------------------------------------------------------------------------
# pair-digraph diameter experiments
# ---------------------------------------------------------------------------


def _pair_diameter(n: int, p1: _Perm, p2: _Perm) -> int | None:
    """The pair-digraph diameter of letters ``p1``, ``p2``; ``None`` if not strongly connected."""
    return diameter(build_pair_digraph(_dfa(n, p1, p2))).value


def _conjugacy_classes(n: int) -> list[tuple[_Perm, list[_Perm]]]:
    """Conjugacy classes of all ``n``-state permutations, as
    ``(representative, members)`` in the order of the representatives, each
    the least member of its class."""
    members: dict[tuple[int, ...], list[_Perm]] = {}
    for p in itertools.permutations(range(n)):  # in sorted order
        members.setdefault(tuple(sorted(cycle_lengths(p))), []).append(p)
    return sorted((group[0], group) for group in members.values())


def _conjugators(x: _Perm, y: _Perm) -> Iterator[_Perm]:
    """Every h with h x h^{-1} = y; none unless ``x`` and ``y`` share a cycle type.

    h maps each cycle of ``x`` onto a cycle of ``y`` of its length, at each
    rotation and under each arrangement of the cycles of one length: as
    many maps as C(y) = prod_l C_l wr S_{m_l} has elements (Seress), for
    the m_l cycles of each length l.  The first keeps the listed order of
    the cycles, each unrotated.
    """
    xs, ys = (sorted(_cycles(p), key=len) for p in (x, y))
    if list(map(len, xs)) != list(map(len, ys)):
        return
    domain, h = list(itertools.chain(*xs)), [0] * len(x)
    arrangements = (itertools.permutations(group) for _, group in itertools.groupby(ys, len))
    for order in itertools.product(*arrangements):
        rotations = ([c[r:] + c[:r] for r in range(len(c))] for c in itertools.chain(*order))
        for images in itertools.product(*rotations):
            for q, image in zip(domain, itertools.chain(*images)):
                h[q] = image
            yield tuple(h)


def _exhaustive_pair_classes(n: int) -> Iterator[tuple[_Perm, _Perm]]:
    """Two-element permutation sets, one representative per conjugacy orbit.

    Every orbit is anchored at the least member of the class with the
    smaller centralizer, that is the larger class, as |C(rep)| = n!/|class|,
    and the earlier class on ties; the partner then ranges over minimal
    elements of the anchor's centralizer orbits.  A centralizer is listed
    from the anchor's cycles, as :func:`_conjugators` of the anchor to
    itself, and only once its class anchors a partner, so the identity's,
    all of S_n, is never listed past n = 2: the identity anchors only
    itself.  A pair from one class can be anchored at either end: any h
    conjugating the partner to the anchor carries the anchor to the partner
    seen from the other end (every such h into one centralizer orbit), and
    the pair is kept only if its partner is not greater than the least
    centralizer conjugate of that one.
    """
    classes = _conjugacy_classes(n)
    centralizers: dict[_Perm, list[tuple[_Perm, _Perm]]] = {}
    for i, (rep_i, members_i) in enumerate(classes):
        for rep_j, members_j in classes[i:]:
            if len(members_i) >= len(members_j):
                anchor, partners = rep_i, members_j
            else:
                anchor, partners = rep_j, members_i
            for partner in partners:
                if partner == anchor:
                    continue
                if (centralizer := centralizers.get(anchor)) is None:
                    centralizer = [(g, _inv(g)) for g in _conjugators(anchor, anchor)]
                    centralizers[anchor] = centralizer
                if any(_conjugate(partner, g, ginv) < partner for g, ginv in centralizer):
                    continue
                if rep_i == rep_j:
                    h = next(_conjugators(partner, anchor))
                    other = _conjugate(anchor, h, _inv(h))
                    if any(_conjugate(other, g, ginv) < partner for g, ginv in centralizer):
                        continue
                yield anchor, partner


@lru_cache(maxsize=None)
def _pair_orbit_count(n: int) -> int:
    """The number of conjugacy orbits of two-element subsets of S_n, the
    trials of an exhaustive run, by Burnside's lemma over the cycle types.

    A permutation g fixes a set {x, y} when it commutes with both, or when
    it swaps them, and then g^2 commutes with x but g does not; so it fixes
    C(c, 2) + (c2 - c) / 2 sets, where c = |C(g)| = prod l^m_l m_l! for m_l
    cycles of length l and c2 = |C(g^2)|.  With n!/c permutations per cycle
    type, the count is the sum over the types of (c - 2 + c2/c) / 2, and
    the c2/c sum is the sum over the types of their square roots: both are
    (1/n!) sum_y |C(y)| #{g : g^2 = y}.  A square root pairs up some of the
    m_l cycles of an odd length l into cycles of length 2l, each pair in l
    ways, and must pair all those of an even length.  So each term is a
    product over the lengths, and a dynamic programme over the lengths sums
    it over the types by the states they use.
    """
    sums = [(1, 1, 1)] + [(0, 0, 0)] * n  # by states used: types, sum of c, sum of roots
    for l in range(1, n + 1):
        weights = []  # per count m of l-cycles: c's factor and their square roots
        for m in range(n // l + 1):
            # 2j of them paired ((2j)! / (j! 2^j) ways), the rest left whole if l is odd
            pairings = (
                math.comb(m, 2 * j) * math.factorial(2 * j) // (math.factorial(j) << j) * l**j
                for j in range(m // 2 + 1) if l % 2 or 2 * j == m
            )
            weights.append((l**m * math.factorial(m), sum(pairings)))
        new = [(0, 0, 0)] * (n + 1)
        for used, (types, c, roots) in enumerate(sums):
            for m, (c_factor, roots_factor) in enumerate(weights[: (n - used) // l + 1]):
                t, c_sum, r_sum = new[used + m * l]
                new[used + m * l] = (t + types, c_sum + c * c_factor, r_sum + roots * roots_factor)
        sums = new
    types, c, roots = sums[n]
    return (c + roots) // 2 - types


def _pair_diameter_bytes(n: int) -> int:
    """Upper estimate of the exhaustive pair-diameter experiment's memory.

    Per permutation of S_n the run holds one member tuple of
    :func:`_conjugacy_classes` with its list slot (48 + 8n bytes) and at
    most one centralizer element (144 + 16n bytes: two tuples and their
    pair), listed from the anchor's cycles; trial lines are written as
    they are measured and the diameters kept as a histogram.  The centralizers listed, all but the identity's
    past n = 2, hold at most the sum of |C(rep)| over the classes less n!
    elements, and that sum is at most 2 n! (equal at n = 2, 1.07 n! at
    n = 8, falling since).  64 KB covers the fixed parts and the pair
    digraph of one pair.  At n = 8 that is 16 MB, where tracemalloc
    measured a 7.0 MB peak; at n = 10 it is 1.6 GB.
    """
    return (1 << 16) + math.factorial(n) * (48 + 8 * n + 144 + 16 * n)


def random_pair_diameter_experiment(cfg: SearchConfig) -> dict:
    """Diameter statistics of pair digraphs on two permutation letters.

    Random mode samples ``trials`` permutation pairs with the seeded
    shuffle; exhaustive mode measures one representative of every
    conjugacy orbit of two-element permutation sets and returns the true
    maximum.  Pairs whose digraph is not strongly connected have no
    diameter and are tallied separately.  With ``output_path`` each trial
    line is written as it is measured, between the header and the summary.

    An exhaustive run whose :func:`_pair_diameter_bytes` estimate exceeds
    physical memory is refused with ``ValueError`` before any permutation
    is listed or any file written; n = 8 took 6.8 s on a 2-core host,
    most of it in the diameters.
    """
    n = cfg.n
    config: dict = {"n": n, "mode": cfg.mode.value}
    if cfg.mode is SearchMode.EXHAUSTIVE:
        _require_memory(n, _pair_diameter_bytes(n), "the exhaustive pair-diameter experiment")
        pairs: Iterable[tuple[_Perm, _Perm]] = _exhaustive_pair_classes(n)
    else:
        config.update(trials=cfg.trials, seed=cfg.seed)
        rng = random.Random(cfg.seed)
        pairs = (_sampled_pair(rng, n) for _ in range(cfg.trials))
    counts: Counter[int | None] = Counter()
    best, best_pair = -1, None
    with _results_file(cfg.output_path, _header_line("pair-diameter", config)) as write:
        for index, pair in enumerate(pairs):
            value = _pair_diameter(n, *pair)
            if value is not None and value > best:
                best, best_pair = value, pair
            counts[value] += 1
            write(_pair_trial(config, index, value))
        summary = _pair_summary(config, counts, best_pair)
        write({"type": "summary", **summary})
    return summary


def _pair_trial(config: Mapping, index: int, value: int | None) -> dict:
    return dict(type="trial", trial=index, strongly_connected=value is not None, diameter=value)


def _pair_summary(config: Mapping, counts: Counter[int | None], best_pair: tuple | None) -> dict:
    """The summary for header ``config``, the diameters ``counts`` counts (``None``
    if not strongly connected) and ``best_pair``, the first pair of the largest."""
    return {
        "n": config["n"],
        "mode": config["mode"],
        "trials": counts.total(),
        "seed": config["seed"] if config["mode"] == SearchMode.RANDOM.value else None,
        "strongly_connected": counts.total() - counts[None],
        "not_strongly_connected": counts[None],
        **_statistics(counts),
        "max_pair": dict(zip("ab", map(list, best_pair))) if best_pair else None,
    }


# ---------------------------------------------------------------------------
# journal inspection
# ---------------------------------------------------------------------------


def _journal(path: Path) -> tuple[list[tuple[str, object]], bytes]:
    """Each complete line of a results file as a checked ``(type, value)``
    entry, and the bytes after the last newline: a final line cut off
    mid-write, as after a crash, which makes no entry.

    The values are the header's dict, a block's ``p1`` tuple, a record's
    :class:`SearchRecord`, a result's ``max_rt``, and the other fields of a
    trial or summary.  Each line's own content is checked before its place
    in the file, and a broken rule raises ``ValueError`` naming the line:

    - the header comes first and only there, with format
      :data:`FORMAT_VERSION`, a kind of :data:`_LINE_TYPES` and a config
      with the fields, field types and mode of one in :data:`_CONFIGS`;
    - every other line has a type of the header's kind;
    - a block's ``p1`` is a permutation of ``range(n)`` not seen before;
    - a record passes :func:`record_from_json_dict`, and its rt exceeds the
      rt of the record before it;
    - a result's ``max_rt`` is the rt of the last record, and one exists;
    - a trial's ``trial`` is its position, below the :func:`_trial_count`
      of the header's config, and the line is the one its experiment
      writes for its ``rt`` or ``diameter``;
    - a summary is :func:`_summary_of` the header and the trials before it,
      and follows exactly that many trials;
    - nothing follows a closing ``result`` or ``summary`` line.

    A file with no complete line must begin like a header line.
    """
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    cut = data[complete:]
    if not complete and not (cut.startswith(_HEADER_START) or _HEADER_START.startswith(cut)):
        raise ValueError(f"{path} is not a results file")
    entries: list[tuple[str, object]] = []
    header: dict | None = None
    blocks: set[_Perm] = set()
    last_rt = -1
    counts: Counter[int | None] = Counter()
    for number, line in enumerate(data[:complete].decode("ascii").splitlines(), 1):
        try:
            if not isinstance(obj := json.loads(line), dict):
                raise ValueError("not a JSON object")
            kind = obj.get("type")
            if kind == "header":
                # a tuple of kinds: a kind may be a JSON list, which cannot be hashed
                if obj.get("format") != FORMAT_VERSION or obj.get("kind") not in tuple(_LINE_TYPES):
                    raise ValueError("not a header of a known format and kind")
                if not isinstance(config := obj.get("config"), dict):
                    raise ValueError("a header whose config is not an object")
                fields = {key: type(field) for key, field in config.items()}
                if dict(fields, mode=config.get("mode")) not in _CONFIGS[obj["kind"]]:
                    raise ValueError(f"a header config that no {obj['kind']} run writes")
                if entries:
                    raise ValueError("a header after the first line")
                value = header = obj
            elif header is None:
                raise ValueError(f"a {kind!r} line before the header")
            elif kind not in _LINE_TYPES[header["kind"]]:
                raise ValueError(f"a {kind!r} line in a {header['kind']} file")
            elif kind == "block":
                value = _json_permutation("p1", obj.get("p1"), header["config"].get("n"))
                if value in blocks:
                    raise ValueError(f"a second block for p1 {list(value)}")
                blocks.add(value)
            elif kind == "record":
                value = record_from_json_dict(obj)
                if value.rt <= last_rt:
                    raise ValueError(f"record rt {value.rt} after a record of rt {last_rt}")
                last_rt = value.rt
            elif kind == "result":
                if (value := _json_int(obj.get("max_rt"))) != last_rt or last_rt < 0:
                    raise ValueError(f"max_rt {value} is not the last record's rt")
            elif kind == "trial":
                rt_file = header["kind"] == "random-rt"
                name, trial_line = ("rt", _rt_trial) if rt_file else ("diameter", _pair_trial)
                if (measured := obj.get(name)) is not None and _json_int(measured) < 0:
                    raise ValueError(f"{name} {measured} is negative")
                if obj.get("trial") != (position := counts.total()):
                    raise ValueError(f"trial {obj.get('trial')!r} at position {position}")
                if position >= (trials := _trial_count(header["config"])):
                    raise ValueError(f"trial {position} past the header's {trials} trials")
                if _json_line(obj) != _json_line(trial_line(header["config"], position, measured)):
                    raise ValueError(f"a trial line that its {name} {measured} does not give")
                counts[measured] += 1
            elif _json_line(obj) != _json_line({"type": kind, **_summary_of(header, obj, counts)}):
                raise ValueError("a summary that the header and trial lines do not give")
            if kind in ("trial", "summary"):
                value = {key: field for key, field in obj.items() if key != "type"}
            if entries and entries[-1][0] in _CLOSING:
                raise ValueError(f"a line after the {entries[-1][0]} line")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
        entries.append((kind, value))
    return entries, cut


def _json_permutation(name: str, p: object, n: object) -> _Perm:
    """``p`` as a tuple, if it is a JSON list of a permutation of ``range(n)``."""
    if not isinstance(p, list) or len(p) != n or sorted(map(_json_int, p)) != list(range(n)):
        raise ValueError(f"{name} {p!r} is not a permutation of range(n)")
    return tuple(p)


def _trial_count(config: Mapping) -> int:
    """The trials an experiment header's ``config`` runs: its ``trials`` in
    random mode, one per pair orbit (:func:`_pair_orbit_count`) otherwise."""
    if config["mode"] == SearchMode.RANDOM.value:
        return config["trials"]
    return _pair_orbit_count(config["n"])


def _summary_of(header: dict, written: dict, counts: Counter[int | None]) -> dict:
    """The summary for the header's config and the trial values ``counts``,
    taking what they cannot give from the ``written`` one: a random-rt
    ``resampled`` that is a count, a pair-diameter ``max_pair`` of ``max``."""
    config = header["config"]
    if counts.total() != (trials := _trial_count(config)):
        raise ValueError(f"a summary after {counts.total()} of {trials} trials")
    if header["kind"] == "random-rt":
        if _json_int(resampled := written.get("resampled")) < 0:
            raise ValueError(f"resampled {resampled} is negative")
        return _rt_summary(config, counts, resampled)
    if (pair := written.get("max_pair")) is not None:  # a key or type error names the line
        pair = tuple(_json_permutation(f"max_pair {x}", pair[x], config["n"]) for x in "ab")
    summary = _pair_summary(config, counts, pair)
    if (_pair_diameter(config["n"], *pair) if pair else None) != summary["max"]:
        raise ValueError(f"max_pair does not measure max {summary['max']}")
    return summary


def load_records(path: str | Path) -> list[SearchRecord]:
    """The records of a results file, each re-verified; :func:`_journal`
    reads the file and raises ``ValueError`` on any line it refuses."""
    return [record for kind, record in _journal(Path(path))[0] if kind == "record"]


def summarize_results(path: str | Path) -> dict:
    """Digest of a results file: kind, config, best values, completeness.

    :func:`_journal` reads the file and raises ``ValueError`` on any line it
    refuses.  A final line cut off mid-write is left out, and the file reads
    as not complete; so does a file with no complete header line yet, whose
    kind and config are ``None``.  A complete experiment file gives its
    ``summary``, an incomplete one its ``trials_done``; a census journal, or
    a file with no header yet, gives its ``max_rt``, ``blocks_done`` and
    ``records`` so far.
    """
    entries, _ = _journal(Path(path))
    header = entries[0][1] if entries else {}
    out = {
        "kind": header.get("kind"),
        "config": header.get("config"),
        "complete": bool(entries) and entries[-1][0] in _CLOSING,
    }
    if entries and entries[-1][0] == "summary":
        out["summary"] = entries[-1][1]
    elif out["kind"] in ("random-rt", "pair-diameter"):
        out["trials_done"] = sum(kind == "trial" for kind, _ in entries)
    else:
        records = [record for kind, record in entries if kind == "record"]
        out["max_rt"] = records[-1].rt if records else None
        out["blocks_done"] = sum(kind == "block" for kind, _ in entries)
        out["records"] = len(records)
    return out


__all__ = [
    "FORMAT_VERSION",
    "SearchConfig",
    "SearchMode",
    "SearchRecord",
    "canonical_form",
    "load_records",
    "max_reset_threshold_exhaustive",
    "random_pair_diameter_experiment",
    "random_rt_experiment",
    "record_from_json_dict",
    "record_to_json_dict",
    "summarize_results",
]
