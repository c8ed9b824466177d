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
the rank letter.  The rank letters themselves are not filtered: one subset
BFS per permutation pair covers all of them at once, and a symmetry fixing
the pair maps a rank letter to a conjugate with the same threshold, so the
block maximum and its first candidate in enumeration order stay the same.
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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    Dfa,
    Transformation,
    Word,
    _json_int,
    dfa_from_json_dict,
    dfa_to_json_dict,
)
from .monoid import _generates_symmetric, _inv, _transitive_with_odd, cycle_lengths
from .pairgraph import build_pair_digraph, diameter
from .sync import (
    NOT_SYNCHRONIZING,
    _require_memory,
    _reset_distances,
    _resets,
    _subset_table,
    pairchase_reset_word,
    reset_threshold_exact,
)

FORMAT_VERSION = 1

#: Hard state-count cap for the exhaustive pair-diameter experiment.
PAIR_DIAMETER_CAP = 9

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
    ``timestamp`` is kept out of seeded runs (it breaks byte-identical
    reruns) and is ``None`` unless a caller fills it in.
    """

    dfa: Dfa
    rt: int
    witness: Word
    timestamp: str | None = None
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
        "timestamp": record.timestamp,
        "config": dict(record.config) if record.config is not None else None,
    }


def record_from_json_dict(obj: Mapping[str, object]) -> SearchRecord:
    """Rebuild a record from its JSON form and re-verify the witness.

    A missing or malformed field raises ``ValueError``, as a bad witness does.
    """
    try:
        d = dfa_from_json_dict(obj["dfa"])
        record = SearchRecord(
            dfa=d,
            rt=_json_int(obj["rt"]),
            witness=Word(tuple(d.letter_index(name) for name in obj["witness"])),
            timestamp=obj.get("timestamp"),
            config=obj.get("config"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed record JSON: {exc}") from exc
    record.verify()
    return record


def _json_line(obj: Mapping[str, object]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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
    """Permutations, residual group, rank letters, the letters' moves, and
    the permutations' ``rank`` and ``least`` tables.

    ``moves[S]`` lists the pairs ``(X, mask)`` where bit r of ``mask`` is set
    when rank letter r (in :func:`_normalized_rank_letters` order) maps the
    subset ``S`` onto ``X``.  ``rank[p]`` is the index of ``p`` in the sorted
    permutations and ``least[r]`` the rank of the least residual conjugate
    of permutation r.
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
    rank = {p: r for r, p in enumerate(perms)}
    least = [-1] * len(perms)
    for r, p in enumerate(perms):
        if least[r] < 0:  # orbits are met in sorted order: r is its least
            for g, ginv in residual:
                least[rank[_conjugate(p, g, ginv)]] = r
    return perms, residual, rank_letters, moves, rank, least


def _census_bytes(n: int, workers: int) -> int:
    """Upper estimate of the census's memory at ``n`` states.

    The parent's pending ``(n, p1)`` tuples take 104 + 8n bytes per
    permutation.  Each of the ``workers`` processes running blocks holds its
    own :func:`_census_context`: the n! sorted permutations (48 + 8n bytes
    each) with their ``rank`` and ``least`` entries (128 bytes: a dict entry
    of up to 58 bytes while it resizes, an int and a list slot), n!/2 rank
    letters (48 + 8n bytes each) and, for each of the
    C(2n-1, n-1) + C(2n-2, n-2) subset moves, 200 bytes of entry and a mask
    of up to n!/2 bits at 7.5 bits per byte, plus 1 KB for the fixed parts
    of its containers (the empty lists, dicts and tuples themselves), which
    dominate at n = 2: tracemalloc measured a 1,550-byte peak there against
    1,248 bytes from the other terms.  At n = 8 that is 39 MB per context,
    where tracemalloc measured a 33 MB peak; at n = 10 it is 35 GB.
    """
    perms = math.factorial(n)
    moves = math.comb(2 * n - 1, n - 1) + math.comb(2 * n - 2, n - 2)
    context = 1024 + perms * ((48 + 8 * n) * 3 // 2 + 128) + moves * (200 + perms // 15)
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


def _last_resets(
    table1: list[int], table2: list[int], moves: list, live: int
) -> tuple[int, int] | None:
    """One subset BFS for the automata ``(p1, p2, t_r)`` of every bit r of ``live``.

    ``rows[S]`` has bit r set when ``S`` is on the current level of
    automaton r, and ``seen[S]`` holds the bits that have visited ``S``.  A
    bit retires once its automaton reaches a singleton.  Returns the level
    at which the last live bit retires, that is the largest reset threshold,
    and the bits that retire there; or ``None`` when the levels run out with
    a bit still live, as that bit's automaton never resets.
    """
    size = len(table1)
    seen = [0] * size
    seen[-1] = live
    rows = [(size - 1, live)]
    level = 0
    while rows:
        level += 1
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
        if retired:
            live &= ~retired
            if not live:
                return level, retired
            rows = [(x, bits & live) for x, bits in rows if bits & live]
    return None


def _census_block(args: tuple[int, _Perm]) -> tuple[_Perm, int, _Perm | None, _Perm | None]:
    """Process every candidate whose first permutation letter is ``p1``.

    Returns ``(p1, block_max_rt, p2, t)`` where the last three describe the
    first enumeration-order candidate attaining the block maximum (``-1``
    and ``None`` when the block is empty).  One subset BFS per ``p2`` covers
    all rank letters, and the lowest retiring bit is the first of them.

    The filters run cheapest first.  ``p1`` must be least in its residual
    orbit, and the pair must survive :func:`_dead_pair`, which the least
    conjugate ranks settle unless ``p2`` lies in the orbit of ``p1`` or a
    residual symmetry other than the identity fixes ``p1``.  Then the pair
    must be transitive with an odd letter, steps 1-2 of the recognizer.
    The recognizer itself runs only on a pair whose BFS beats the block
    maximum so far: a pair that does not can never change the result,
    whether it generates the symmetric group or not.  A pair with an
    automaton that never resets cannot generate it, as then the transition
    monoid would be full; that is asserted.
    """
    n, p1 = args
    perms, residual, rank_letters, moves, rank, least = _census_context(n)
    r1 = rank[p1]
    if least[r1] != r1:
        return p1, -1, None, None
    fixed = any(_conjugate(p1, g, ginv) == p1 for g, ginv in residual[1:])
    table1 = _subset_table([1 << q for q in p1])
    everyone = (1 << len(rank_letters)) - 1
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
        found = _last_resets(table1, _subset_table([1 << q for q in p2]), moves, everyone)
        if found is None:
            assert not _generates_symmetric((p1, p2), n), "a full-monoid automaton never resets"
        elif found[0] > best_rt and _generates_symmetric((p1, p2), n):
            best_rt, retired = found
            best_p2 = p2
            best_t = rank_letters[(retired & -retired).bit_length() - 1]
    return p1, best_rt, best_p2, best_t


def _census_dfa(n: int, p1: _Perm, p2: _Perm, t: _Perm) -> Dfa:
    return Dfa(
        n,
        (
            ("a", Transformation(p1)),
            ("b", Transformation(p2)),
            ("c", Transformation(t)),
        ),
    )


def _census_record(n: int, p1: _Perm, p2: _Perm, t: _Perm, expected_rt: int) -> SearchRecord:
    canon = canonical_form(_census_dfa(n, p1, p2, t))
    result = reset_threshold_exact(canon)
    assert result is not NOT_SYNCHRONIZING
    rt, witness = result
    assert rt == expected_rt
    return SearchRecord(
        dfa=canon,
        rt=rt,
        witness=witness,
        config={"n": n, "mode": SearchMode.EXHAUSTIVE.value},
    )


def _census_header(n: int) -> str:
    return _json_line(
        {
            "type": "header",
            "format": FORMAT_VERSION,
            "kind": "max-rt-census",
            "config": {"n": n, "mode": SearchMode.EXHAUSTIVE.value},
        }
    )


def _complete_lines(path: Path) -> tuple[list[str], bytes]:
    """The complete lines of a journal, and the bytes after the last newline.

    Those bytes are a final line cut off mid-write, as after a crash; every
    journal reader leaves them out.
    """
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    return data[:complete].decode("ascii").splitlines(), data[complete:]


def _journal_object(line: str) -> dict:
    """The JSON object on a complete journal line; any other line raises ``ValueError``."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"journal line is not a JSON object: {line[:60]}")
    return obj


def _read_census_journal(
    path: Path, n: int
) -> tuple[set[_Perm], int, SearchRecord | None, bool] | None:
    """Replay an interrupted census journal.

    Returns the set of completed first-letter blocks, the running maximum,
    the best record so far, and whether a final result line is present; or
    ``None`` when not even the header line is complete.  A final line cut
    off mid-write, as after a crash, is truncated away once the complete
    lines have been read.
    """
    lines, cut = _complete_lines(path)
    if not lines:
        if not _census_header(n).encode("ascii").startswith(cut):
            raise ValueError(f"{path} is not a census journal")
        return None
    done: set[_Perm] = set()
    best_rt = -1
    best: SearchRecord | None = None
    finished = False
    for line_no, line in enumerate(lines):
        obj = _journal_object(line)
        kind = obj.get("type")
        if line_no == 0:
            if kind != "header" or obj.get("format") != FORMAT_VERSION:
                raise ValueError(f"{path} is not a census journal")
            if not isinstance(config := obj.get("config"), dict) or config.get("n") != n:
                raise ValueError(f"{path} was produced for a different n")
            continue
        if kind == "block":
            try:
                done.add(tuple(obj["p1"]))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed block line in {path}: {exc}") from exc
        elif kind == "record":
            record = record_from_json_dict(obj)
            best = record
            best_rt = record.rt
        elif kind == "result":
            finished = True
    if cut:
        os.truncate(path, path.stat().st_size - len(cut))
    return done, best_rt, best, finished


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
    before its subset BFS and whose symmetric-group test runs only on a new
    block maximum (see :func:`_census_block`).  On a 2-core host n = 6 took
    5.4-6.4 s in one process, n = 7 206 s with two workers, and the n = 8
    context alone 1.4-1.6 s.  A run whose :func:`_census_bytes` estimate
    (1 GB at n = 9, 35 GB at n = 10, one context more per extra worker)
    exceeds physical memory is refused with ``ValueError`` before it
    allocates or writes anything.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    SearchConfig(n=n, mode=SearchMode.EXHAUSTIVE, output_path=output_path)  # validates n
    _require_memory(n, _census_bytes(n, workers))
    done: set[_Perm] = set()
    best_rt = -1
    best: SearchRecord | None = None
    finished = False
    sink = None
    path = Path(output_path) if output_path is not None else None
    replay = (
        _read_census_journal(path, n)
        if path is not None and resume and path.exists() else None
    )
    if replay is not None:
        done, best_rt, best, finished = replay
        sink = path.open("a", encoding="ascii")
    elif path is not None:
        sink = path.open("w", encoding="ascii")
        sink.write(_census_header(n))
        sink.flush()
    try:
        if not finished:
            pending = [(n, p1) for p1 in itertools.permutations(range(n)) if p1 not in done]
            if workers > 1 and len(pending) > 1:
                with multiprocessing.Pool(workers) as pool:
                    outcomes: Iterable = pool.imap(_census_block, pending, chunksize=1)
                    best_rt, best = _reduce_census(
                        n, outcomes, best_rt, best, sink
                    )
            else:
                best_rt, best = _reduce_census(
                    n, map(_census_block, pending), best_rt, best, sink
                )
            if best is None:
                raise RuntimeError("census found no candidate automata")
            if sink is not None:
                sink.write(_json_line({"type": "result", "max_rt": best_rt}))
                sink.flush()
        if best is None:
            raise RuntimeError("census journal is finished but holds no record")
    finally:
        if sink is not None:
            sink.close()
    return best_rt, best


def _reduce_census(
    n: int,
    outcomes: Iterable[tuple[_Perm, int, _Perm | None, _Perm | None]],
    best_rt: int,
    best: SearchRecord | None,
    sink,
) -> tuple[int, SearchRecord | None]:
    for p1, block_rt, p2, t in outcomes:
        if block_rt > best_rt:
            assert p2 is not None and t is not None
            best_rt = block_rt
            best = _census_record(n, p1, p2, t, block_rt)
            if sink is not None:
                sink.write(_json_line(record_to_json_dict(best)))
        if sink is not None:
            sink.write(_json_line({"type": "block", "p1": list(p1)}))
            sink.flush()
    return best_rt, best


# ---------------------------------------------------------------------------
# randomized reset-threshold experiment
# ---------------------------------------------------------------------------


def _sampled_permutation(rng: random.Random, n: int) -> _Perm:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


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


def _percentile_99(sorted_values: Sequence[int]) -> int:
    rank = math.ceil(0.99 * len(sorted_values))
    return sorted_values[max(0, rank - 1)]


def random_rt_experiment(
    cfg: SearchConfig,
    *,
    sample_nonperm: bool = False,
    require_symmetric: bool = True,
) -> dict:
    """Reset thresholds of automata built from random permutation pairs.

    Each trial draws two permutations by seeded Fisher-Yates shuffle and
    attaches a rank-``(n-1)`` letter — by default the fixed merge of states
    0 and 1, or a sampled one with ``sample_nonperm``.  By default a draw
    is rejected and repeated until the two permutations generate the
    symmetric group, which keeps every sampled automaton inside the
    full-transition-monoid domain and therefore synchronizing; pass
    ``require_symmetric=False`` to keep unconditioned draws, of which
    roughly a ``1/n`` fraction fail to synchronize.  Up to
    :data:`_EXACT_TRIALS_MAX_N` states the reset threshold is exact: the
    forward pass of the subset BFS behind ``reset_threshold_exact``
    computes the lengths only, with no witness words, for all trials of
    the call together, in batches of at most ``sync._BATCH_SUBSETS``
    (2^16) subsets and at least one automaton, so from 16 states up one
    trial at a time.  Each batch checks its memory before it allocates and
    raises ``ValueError`` like ``reset_threshold_exact`` when it cannot
    fit.  Beyond that the recorded value is the pair-chase word length,
    an upper bound.  The summary reports
    max/mean/99th-percentile and the fraction of synchronizing samples at
    or below ``C * n * log2(n)`` for C in 1, 2, 4.  With ``output_path`` the trials
    and summary are written as JSON lines with no timestamps, so identical
    configs produce identical bytes.
    """
    if cfg.mode is not SearchMode.RANDOM:
        raise ValueError("random_rt_experiment needs a RANDOM-mode config")
    n = cfg.n
    rng = random.Random(cfg.seed)
    dfas: list[Dfa] = []
    resampled = 0
    for _ in range(cfg.trials):
        p1 = _sampled_permutation(rng, n)
        p2 = _sampled_permutation(rng, n)
        while require_symmetric and not _generates_symmetric((p1, p2), n):
            resampled += 1
            p1 = _sampled_permutation(rng, n)
            p2 = _sampled_permutation(rng, n)
        t = _sampled_rank_letter(rng, n) if sample_nonperm else _default_merge_letter(n)
        dfas.append(_census_dfa(n, p1, p2, t))
    exact = n <= _EXACT_TRIALS_MAX_N
    method = "exact_bfs" if exact else "pairchase"
    distances = _reset_distances(dfas) if exact else map(_pairchase_length, dfas)
    trials_out: list[dict] = []
    lengths: list[int] = []
    for index, length in enumerate(distances):
        if length is not None:
            lengths.append(length)
        trials_out.append(
            {
                "type": "trial",
                "trial": index,
                "synchronizing": length is not None,
                "rt": length,
                "method": method,
            }
        )
    summary = _rt_summary(cfg, method, lengths, resampled)
    if cfg.output_path is not None:
        _write_experiment_file(cfg, "random-rt", trials_out, summary)
    return summary


def _pairchase_length(d: Dfa) -> int | None:
    try:
        return pairchase_reset_word(d).length
    except ValueError:  # not synchronizing
        return None


def _rt_summary(cfg: SearchConfig, method: str, lengths: list[int], resampled: int) -> dict:
    ordered = sorted(lengths)
    summary: dict = {
        "n": cfg.n,
        "mode": cfg.mode.value,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "method": method,
        "resampled": resampled,
        "synchronizing": len(ordered),
        "not_synchronizing": cfg.trials - len(ordered),
        "max": None,
        "mean": None,
        "p99": None,
        "fraction_le_c_n_log2_n": None,
    }
    if ordered:
        budget = cfg.n * math.log2(cfg.n)
        summary["max"] = ordered[-1]
        summary["mean"] = sum(ordered) / len(ordered)
        summary["p99"] = _percentile_99(ordered)
        summary["fraction_le_c_n_log2_n"] = {
            str(c): sum(1 for v in ordered if v <= c * budget) / len(ordered)
            for c in (1, 2, 4)
        }
    return summary


def _write_experiment_file(
    cfg: SearchConfig, kind: str, lines: list[dict], summary: dict
) -> None:
    path = Path(cfg.output_path)
    with path.open("w", encoding="ascii") as fh:
        fh.write(
            _json_line(
                {
                    "type": "header",
                    "format": FORMAT_VERSION,
                    "kind": kind,
                    "config": {
                        "n": cfg.n,
                        "mode": cfg.mode.value,
                        "trials": cfg.trials,
                        "seed": cfg.seed,
                    },
                }
            )
        )
        for line in lines:
            fh.write(_json_line(line))
        fh.write(_json_line({"type": "summary", **summary}))


# ---------------------------------------------------------------------------
# pair-digraph diameter experiments
# ---------------------------------------------------------------------------


def _pair_dfa(n: int, p1: _Perm, p2: _Perm) -> Dfa:
    return Dfa(n, (("a", Transformation(p1)), ("b", Transformation(p2))))


def _conjugacy_classes(n: int) -> list[tuple[_Perm, list[_Perm], list[tuple[_Perm, _Perm]]]]:
    """Conjugacy classes of all ``n``-state permutations.

    Returns ``(representative, members, centralizer)`` per class, with the
    representative being the least member and the centralizer carried as
    ``(g, g^{-1})`` pairs.
    """
    members: dict[tuple[int, ...], list[_Perm]] = {}
    for p in itertools.permutations(range(n)):
        members.setdefault(tuple(sorted(cycle_lengths(p), reverse=True)), []).append(p)
    out = []
    for group in members.values():
        group.sort()
        rep = group[0]
        centralizer = []
        for g in itertools.permutations(range(n)):
            if all(g[rep[q]] == rep[g[q]] for q in range(n)):
                centralizer.append((g, _inv(g)))
        out.append((rep, group, centralizer))
    out.sort(key=lambda item: item[0])
    return out


def _exhaustive_pair_classes(n: int) -> Iterator[tuple[_Perm, _Perm]]:
    """Two-element permutation sets, one representative per conjugacy orbit.

    Every orbit is anchored at the least member of the class with the
    smaller centralizer; the partner then ranges over minimal elements of
    residual-centralizer orbits.  For same-class pairs the anchoring can
    emit an orbit twice (once per anchor choice), which only costs a
    repeated measurement, never a missed one.
    """
    classes = _conjugacy_classes(n)
    for i, (rep_i, members_i, cent_i) in enumerate(classes):
        for j in range(i, len(classes)):
            rep_j, members_j, cent_j = classes[j]
            if len(cent_i) <= len(cent_j):
                anchor, centralizer, partners = rep_i, cent_i, members_j
            else:
                anchor, centralizer, partners = rep_j, cent_j, members_i
            for partner in partners:
                if partner == anchor:
                    continue
                if any(
                    _conjugate(partner, g, ginv) < partner
                    for g, ginv in centralizer
                ):
                    continue
                yield anchor, partner


def random_pair_diameter_experiment(cfg: SearchConfig) -> dict:
    """Diameter statistics of pair digraphs on two permutation letters.

    Random mode samples ``trials`` permutation pairs with the seeded
    shuffle; exhaustive mode (capped at ``n <= 9``) measures one
    representative of every conjugacy orbit of two-element permutation sets
    and returns the true maximum.  Pairs whose digraph is not strongly
    connected have no diameter and are tallied separately.
    """
    n = cfg.n
    if cfg.mode is SearchMode.EXHAUSTIVE:
        if n > PAIR_DIAMETER_CAP:
            raise ValueError(
                f"exhaustive pair-diameter runs are capped at n = {PAIR_DIAMETER_CAP}"
            )
        pairs: Iterable[tuple[_Perm, _Perm]] = _exhaustive_pair_classes(n)
    else:
        rng = random.Random(cfg.seed)
        pairs = [
            (_sampled_permutation(rng, n), _sampled_permutation(rng, n))
            for _ in range(cfg.trials)
        ]
    trials_out: list[dict] = []
    diameters: list[int] = []
    connected = 0
    examined = 0
    best = -1
    best_pair: tuple[_Perm, _Perm] | None = None
    for index, (p1, p2) in enumerate(pairs):
        examined += 1
        result = diameter(build_pair_digraph(_pair_dfa(n, p1, p2)))
        if result.strongly_connected:
            connected += 1
            diameters.append(result.value)
            if result.value > best:
                best = result.value
                best_pair = (p1, p2)
        trials_out.append(
            {
                "type": "trial",
                "trial": index,
                "strongly_connected": result.strongly_connected,
                "diameter": result.value,
            }
        )
    ordered = sorted(diameters)
    summary: dict = {
        "n": n,
        "mode": cfg.mode.value,
        "trials": examined,
        "seed": cfg.seed if cfg.mode is SearchMode.RANDOM else None,
        "strongly_connected": connected,
        "not_strongly_connected": examined - connected,
        "max": ordered[-1] if ordered else None,
        "mean": sum(ordered) / len(ordered) if ordered else None,
        "p99": _percentile_99(ordered) if ordered else None,
        "max_pair": (
            {"a": list(best_pair[0]), "b": list(best_pair[1])}
            if best_pair is not None
            else None
        ),
    }
    if cfg.output_path is not None:
        _write_experiment_file(cfg, "pair-diameter", trials_out, summary)
    return summary


# ---------------------------------------------------------------------------
# journal inspection
# ---------------------------------------------------------------------------


def load_records(path: str | Path) -> list[SearchRecord]:
    """Census records of a journal's complete lines, each re-verified on load."""
    records = []
    for line in _complete_lines(Path(path))[0]:
        obj = _journal_object(line)
        if obj.get("type") == "record":
            records.append(record_from_json_dict(obj))
    return records


def summarize_results(path: str | Path) -> dict:
    """Digest of a results file: kind, config, best values, completeness.

    A final line cut off mid-write is left out; the file reads as not complete.
    A line that is not a JSON object, a threshold that is not an integer, or
    a missing header raises ``ValueError``.
    """
    header = None
    best_rt = None
    blocks = 0
    records = 0
    summary_line = None
    finished = False
    for line in _complete_lines(Path(path))[0]:
        obj = _journal_object(line)
        kind = obj.get("type")
        if kind == "header":
            header = obj
        elif kind == "block":
            blocks += 1
        elif kind == "record":
            records += 1
            best_rt = _json_int(obj.get("rt"))
        elif kind == "result":
            best_rt = _json_int(obj.get("max_rt"))
            finished = True
        elif kind == "summary":
            summary_line = {k: v for k, v in obj.items() if k != "type"}
            finished = True
    if header is None:
        raise ValueError(f"{path} has no header line")
    out = {
        "kind": header.get("kind"),
        "config": header.get("config"),
        "complete": finished,
    }
    if summary_line is not None:
        out["summary"] = summary_line
    else:
        out["max_rt"] = best_rt
        out["blocks_done"] = blocks
        out["records"] = records
    return out


__all__ = [
    "FORMAT_VERSION",
    "PAIR_DIAMETER_CAP",
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
