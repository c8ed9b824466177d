"""Reset thresholds and reset-word synthesis.

Four synthesizers are provided: exact subset BFS (optimal, exponential),
pair chasing (greedy merging guided by one backward BFS over pairs of
states from the collapsed ones, read off per-letter preimage lists and the
inverses of permutation letters), subset extension through the
excluded/duplicate stratification (quadratic bound for automata whose
transition monoid is all transformations), and the merging/pairing round
simulation for the three-letter cyclic family.
Every synthesizer machine-checks its output and reports the check in the
``verified`` flag of the returned :class:`ResetResult`.

Only the exact search runs over all 2^n state subsets.  It checks, before
allocating anything, that its bytes fit in physical memory, and it stops at
32 states, as its subsets are ``uint32`` masks; ``potential_lower_bound``
checks its subset inequality fibre by fibre instead.  One forward subset BFS,
:func:`_forward_bfs`, serves both the exact search (a batch of one
automaton) and the reset distances of many automata at once
(:func:`_reset_distances`, behind the random reset-threshold experiment of
:mod:`synchrokit.search`).  The exact witness is walked depth-first on the
levels that BFS built; when the walk runs past its budget, the levels are
pruned in place to the subsets that start a shortest reset word, and the
same walk reads the word off them without backtracking.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Dfa, StateSet, Transformation, Word, _preimage, apply_word
from .families import cb
from .monoid import _inv, _is_two_transitive

#: Bytes per subset the exact search may hold: ``uint16`` distances (2),
#: ``uint32`` levels (4), and one chunk of at most 2^n images with their fresh
#: copy and its unique part (12), ``intp`` gather indices (8) and the flags of
#: the neighbour test (1).
_EXACT_BYTES = 2 + 4 + 12 + 8 + 1
#: Widest chunk of a subset's bits that gets its own image table (see
#: :func:`_chunks`).  The witness walk reads the tables in place, so width
#: costs it nothing.  Against 11 bits (2 cores, medians of six alternating
#: runs): thirty random 14-state exact items took 45 ms against 54, twenty
#: 12-state random-rt calls 53 against 57, and cerny(23), read in two chunks
#: instead of three, 294 against 316.  15 bits was faster again on 15-state
#: items (cerny(15) 2.7 ms against 3.6) but gives each of their letters a
#: 128 KB table; it is untried end to end.
_CHUNK_BITS = 14
#: Subsets one batch of :func:`_reset_distances` may span: at most
#: ``_BATCH_SUBSETS >> n`` automata of n states, so several only where a
#: subset is one chunk (n <= _CHUNK_BITS).
_BATCH_SUBSETS = 2 << _CHUNK_BITS


#: What :func:`reset_threshold_exact` returns when no word resets.
NOT_SYNCHRONIZING = None


class Method(Enum):
    """How a reset word was produced."""

    EXACT_BFS = "exact_bfs"
    PAIRCHASE = "pairchase"
    EXTENSION = "extension"
    CB_ROUNDS = "cb_rounds"


@dataclass(frozen=True)
class ResetResult:
    """A synthesized reset word, the method that built it, and its check."""

    word: Word
    length: int
    method: Method
    verified: bool


def _resets(d: Dfa, w: Word) -> bool:
    """Whether ``w`` maps the full state set to a single state."""
    return apply_word(StateSet.full(d.n), d, w).cardinality() == 1


def _physical_memory() -> int:
    """Bytes of physical memory (POSIX ``sysconf``), the limit of every memory check."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(n: int, need: int, run: str = "a subset search") -> None:
    """Refuse, before it allocates, a run needing more than physical memory."""
    if need > (have := _physical_memory()):
        raise ValueError(
            f"{run} over {n} states needs up to {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def _subset_table(bits: Sequence[int]) -> list[int]:
    """``table[v]``: the OR of ``bits[i]`` over the set bits i of v."""
    table = [0]
    for bit in bits:
        table += [v | bit for v in table]
    return table


def _chunks(n: int) -> tuple[int, int]:
    """``(c, w)``: an n-state subset is read as c = ceil(n / _CHUNK_BITS)
    chunks of w = ceil(n / c) bits, the last one narrower when w does not
    divide n (never empty, as (c - 1) * w < n)."""
    c = -(-n // _CHUNK_BITS)
    return c, -(-n // c)


def _exact_letter_bytes(n: int) -> int:
    """Bytes per letter the exact search may hold at n states: its ``uint32``
    image tables, 4 x c x 2^w (see :func:`_chunks`), at most 4 x 2 x 2^14 at
    n = 27 and 28, and chunk scratch (20 x 256)."""
    c, w = _chunks(n)
    return (4 * c << w) + 20 * 256


def _letter_tables(dfas: Sequence[Dfa]) -> np.ndarray:
    """``tables[i, a, t << w | v]``: the image under letter a of automaton t
    of chunk i's bit set v, with ``t << n`` set in the chunk-0 entries
    (chunks of w bits, see :func:`_chunks`).

    The automata share n and the letter count, and several need one chunk;
    each table doubles once per bit,
    ``table[..., 2^j : 2^(j+1)] = table[..., :2^j] | bit_j``, for all
    letters and automata at once.  The whole batch's memory is checked
    before anything is allocated.
    """
    n, m, trials = dfas[0].n, dfas[0].m, len(dfas)
    if n > 32:
        raise ValueError(f"exact subset search handles at most 32 states, not {n}")
    c, w = _chunks(n)
    if trials > 1 and c > 1:
        raise AssertionError(f"a batch of {trials} automata of {n} states spans {c} chunks, not one")
    _require_memory(n, trials * ((_EXACT_BYTES << n) + _exact_letter_bytes(n) * m))
    images = np.array([[t.images for t in d.transformations()] for d in dfas], dtype=np.uint32)
    bits = np.zeros((trials, m, c * w), dtype=np.uint32)
    bits[:, :, :n] = np.uint32(1) << images
    # bits[i, a, t, j]: the image bit of state w * i + j, 0 past the last state
    bits = bits.reshape(trials, m, c, w).transpose(2, 1, 0, 3)
    tables = np.zeros((c, m, trials, 1 << w), dtype=np.uint32)
    for j in range(w):
        np.bitwise_or(tables[..., : 1 << j], bits[..., j, None], out=tables[..., 1 << j : 2 << j])
    if trials > 1:
        tables[0] |= (np.arange(trials, dtype=np.uint32) << n)[:, None]
    return tables.reshape(c, m, trials << w)


def _by_chunks(fn, codes: np.ndarray, span: int, m: int) -> np.ndarray:
    """``fn`` over slices of ``codes`` with at most ``span`` images (or 256 codes), joined."""
    step = max(256, span // m)
    if codes.size <= step:
        return fn(codes)
    return np.concatenate([fn(codes[lo : lo + step]) for lo in range(0, codes.size, step)])


def _images(tables: np.ndarray, codes: np.ndarray, n: int) -> np.ndarray:
    """Images of every code under every letter, shape (letters, codes).

    With one chunk, code ``t << n | S`` of a batch reads its entry as is;
    an automaton alone (codes below 2^n) ORs one gather per chunk.
    """
    # take() gathers about twice as fast as the equivalent [:, index] here
    c, w = _chunks(n)
    if c == 1:
        return tables[0].take(codes, axis=1)
    # the codes are below 2^n, so the last chunk needs no mask
    mask = (1 << w) - 1
    img = tables[-1].take(codes >> (w * (c - 1)), axis=1)
    for i in range(c - 1):
        img |= tables[i].take((codes >> (w * i)) & mask, axis=1)
    return img


def _fresh_images(
    tables: np.ndarray, dist: np.ndarray, codes: np.ndarray, n: int, level: int, keep: np.ndarray
) -> np.ndarray:
    """Unvisited images of ``codes``, sorted and unique, marked in ``dist``.

    ``keep`` is scratch for the neighbour test, one flag per image at least.
    """
    # compress, not a boolean mask: 27-42 against 72-182 us on 32,768 codes;
    # np.unique is 13-15x slower than the in-place sort and neighbour test
    img = _images(tables, codes, n).ravel()
    fresh = img.compress(dist.take(img) == 0)
    if fresh.size:
        fresh.sort()
        new = keep[: fresh.size]
        new[0] = True
        np.not_equal(fresh[1:], fresh[:-1], out=new[1:])
        fresh = fresh.compress(new)
        dist[fresh] = level
    return fresh


def _forward_bfs(
    tables: np.ndarray, n: int
) -> tuple[list[int | None], list[np.ndarray], np.ndarray]:
    """Level-synchronous subset BFS from the full set, over a batch of automata.

    ``tables`` comes from :func:`_letter_tables` for a batch of automata
    with ``n`` states; the subset S of automaton t has code ``t << n | S``.
    Returns each automaton's reset distance (``None`` when no singleton is
    reachable), the levels of codes, and ``dist`` with level + 1 for every
    visited code (0 for unvisited).  An automaton retires, and its codes
    leave the frontier, on the first level after which ``dist`` marks one of
    its singletons, so the singletons are looked up, not the level scanned;
    the search ends when every automaton has retired or the frontier is
    empty.  With one automaton the levels run up to the first one holding a
    singleton.  Levels past 0xFFFE share the last ``uint16`` value; only
    non-synchronizing automata get that deep, since a shortest reset word has
    at most (n^3 - n) / 6 letters.  A level is mapped in chunks (see
    :func:`_by_chunks`).
    """
    m, trials = tables.shape[1], tables.shape[2] >> _chunks(n)[1]
    span = trials << n
    keep = np.empty(max(256 * m, span), dtype=bool)  # a chunk's images at most
    offsets = np.arange(trials, dtype=np.uint32) << n
    # singles[t, q]: the code of automaton t's singleton {q}
    singles = offsets[:, None] | np.uint32(1) << np.arange(n, dtype=np.uint32)
    dist = np.zeros(span, dtype=np.uint16)
    frontier = offsets | ((1 << n) - 1)
    dist[frontier] = 1
    levels = [frontier]
    distances: list[int | None] = [None] * trials
    while True:
        found = dist.take(singles)
        if found.any():
            hit = found.any(axis=1)
            for code in offsets.compress(hit).tolist():
                distances[code >> n] = len(levels) - 1
            if hit.all():
                return distances, levels, dist
            offsets, singles = offsets.compress(~hit), singles.compress(~hit, axis=0)
            live = np.zeros(trials, dtype=bool)
            live[offsets >> n] = True
            frontier = frontier.compress(live.take(frontier >> n))
        level = min(len(levels) + 1, 0xFFFF)
        frontier = _by_chunks(
            lambda s: _fresh_images(tables, dist, s, n, level, keep), frontier, span, m
        )
        if frontier.size == 0:
            return distances, levels, dist
        levels.append(frontier)


def _reset_distances(dfas: Sequence[Dfa]) -> list[int | None]:
    """Lengths of shortest reset words, or ``None``: the forward pass alone.

    The automata share n and the letter count.  They are searched in
    batches of at most ``_BATCH_SUBSETS`` subsets, at least one automaton
    each, so a batch of several is one chunk (see :func:`_letter_tables`),
    and every batch checks its own memory need.
    """
    if not dfas:
        return []
    size = max(1, _BATCH_SUBSETS >> dfas[0].n)
    distances: list[int | None] = []
    for lo in range(0, len(dfas), size):
        batch = dfas[lo : lo + size]
        distances += _forward_bfs(_letter_tables(batch), batch[0].n)[0]
    return distances


def reset_threshold_exact(d: Dfa) -> tuple[int, Word] | None:
    """Exact reset threshold by level-synchronous BFS over state subsets.

    Returns ``(rt, word)`` where ``word`` is the lexicographically least
    shortest reset word under the letter order, or ``None``
    (:data:`NOT_SYNCHRONIZING`) when no singleton subset is reachable.

    The forward pass maps whole numpy frontiers under every letter through
    image tables over chunks of up to 14 bits (one gather per letter up to
    14 states, two up to 28), level by level from the full set, until a
    level holds a singleton.  The witness comes from a depth-first walk on
    those levels (:func:`_walk`): every prefix of a shortest reset word lands on
    the next level, so the walk steps from the full set, in letter order,
    only to an image one level further (a singleton on the last step) and
    backtracks past subsets that failed.  A walk that expands more than
    :func:`_walk_budget` subsets stops; :func:`_prune` then clears from the
    levels every subset that starts no shortest reset word, and the walk,
    run again, expands exactly rt subsets and gives the same word.

    Memory is at most 27 * 2^n + (4 * c * 2^w + 5120) * m bytes for m
    letters and c chunks of w bits (see ``_EXACT_BYTES`` and
    :func:`_exact_letter_bytes`), so at most 27 * 2^n + 136192 * m:
    cerny(25) needs at most 906 MB.

    Raises:
        ValueError: past 32 states (subsets are ``uint32`` masks) or when
            that bound exceeds physical memory, both before any allocation;
            pairchase_reset_word and extension_reset_word take larger inputs.
    """
    n = d.n
    tables = _letter_tables([d])
    (rt,), levels, dist = _forward_bfs(tables, n)
    if rt is None:
        return None
    letters = _walk(tables, dist, n, rt, _walk_budget(rt))
    if letters is None:
        _prune(tables, levels, dist, n, rt)
        letters = _walk(tables, dist, n, rt, rt)
    return rt, Word(tuple(letters))


def _walk_budget(rt: int) -> int:
    """Subsets the witness walk may expand before the levels are pruned:
    cerny(n) and rystsov(n) take rt, v(n) rt + n - 2, and thirty random
    14-state automata 505 to 16,280, where pruning first is faster."""
    return 2 * rt + 16


def _walk(
    tables: np.ndarray, dist: np.ndarray, n: int, rt: int, budget: int
) -> list[int] | None:
    """Letters of the least shortest reset word, by a depth-first walk on
    the levels of ``dist``, or ``None`` once it would expand more than
    ``budget`` subsets.

    A subset on level k is expanded by trying its letters in index order, a
    letter mapped only when it is tried; an image continues the walk if it
    lies on level k + 1 and has not failed before, or, on the last step, if
    it is a singleton.  A subset none of whose letters continues has failed,
    and the walk backtracks; each subset is expanded at most once.
    """
    if rt == 0:
        return []
    # rows[a]: letter a's table for chunk 0, then the shift and table of
    # each further chunk, read in place as ``depth`` reads ``dist``
    _, w = _chunks(n)
    mask = (1 << w) - 1
    views = [list(map(memoryview, letter)) for letter in tables.transpose(1, 0, 2)]
    rows = [(low, list(zip(range(w, n, w), high))) for low, *high in views]
    depth = memoryview(dist)  # reads Python ints, faster than numpy scalars
    path, word, failed = [(1 << n) - 1], [], set()
    start = 0  # the first letter to try on the last subset of the path
    # every subset on the path or failed has been expanded, and only those
    while len(path) + len(failed) <= budget:
        # ``dist`` holds level + 1, so the next level's is len(path) + 1
        s, last, after = path[-1], len(path) == rt, len(path) + 1
        for a in range(start, len(rows)):
            low, high = rows[a]
            t = low[s & mask]
            for shift, row in high:
                t |= row[s >> shift & mask]
            if last:
                if t & (t - 1) == 0:
                    return word + [a]
            elif depth[t] == after and t not in failed:
                path.append(t)
                word.append(a)
                start = 0
                break
        else:
            failed.add(path.pop())
            start = word.pop() + 1
    return None


def _prune(
    tables: np.ndarray, levels: list[np.ndarray], dist: np.ndarray, n: int, rt: int
) -> None:
    """Clear from ``dist`` every subset that starts no shortest reset word.

    The non-singletons of level rt go first; then, from level rt - 1 down
    to 0, every subset none of whose images is still on the next level.  On
    the pruned levels each subset the walk meets continues, so
    :func:`_walk` expands exactly rt of them.  Every level is mapped whole,
    in chunks (see :func:`_by_chunks`).
    """
    last = levels[rt]
    dist[last.compress((last & (last - 1)) != 0)] = 0
    for k in range(rt - 1, -1, -1):
        # ``dist`` holds level + 1, so k + 2 marks the kept subsets of level k + 1
        dist[_by_chunks(
            lambda s: s.compress((dist.take(_images(tables, s, n)) != k + 2).all(axis=0)),
            levels[k], 1 << n, tables.shape[1],
        )] = 0


def _mask_bits(mask: int, n: int) -> np.ndarray:
    """Bit q of ``mask`` as entry q of an array of n bools."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _merge_distances(d: Dfa) -> tuple[list[int], list[set[int]]]:
    """``dist[p * n + q]``, the length of a shortest word collapsing states p
    and q (0 where p == q, -1 if none), and ``touch[s]``, the letters whose
    preimage of s is not ``[s]``.

    A backward BFS from the pairs {s, s}, popped from a queue as it goes:
    {p, q} is reached from the pairs of ``a^-1(p) x a^-1(q)`` for the
    letters a in ``touch[p] | touch[q]``; any other letter fixes both states.
    A permutation letter's preimages are read off its inverse, any other
    letter's from its preimage lists.
    """
    n = d.n
    dist = [-1] * (n * n)
    dist[:: n + 1] = [0] * n
    touch: list[set[int]] = [set() for _ in range(n)]
    inverse: list[tuple[int, ...] | None] = []  # inverse[a]: a's inverse, None unless a permutes
    pre = []  # pre[a][s]: the states letter a maps to s
    for a, t in enumerate(d.transformations()):
        blocks: list[list[int]] = [[] for _ in range(n)]
        for x, s in enumerate(t.images):
            blocks[s].append(x)
        pre.append(blocks)
        inverse.append(_inv(t.images) if t.is_permutation() else None)
        for s, block in enumerate(blocks):
            if block != [s]:
                touch[s].add(a)
    queue = deque(range(0, n * n, n + 1))  # pair codes p * n + q
    while queue:
        p, q = divmod(v := queue.popleft(), n)
        step = dist[v] + 1
        tp, tq = touch[p], touch[q]
        for a in tp if tp == tq else tp | tq:
            if (inv := inverse[a]) is not None:
                x, y = inv[p], inv[q]
                if dist[w := x * n + y] < 0:
                    dist[w] = dist[y * n + x] = step
                    queue.append(w)
                continue
            blocks = pre[a]
            for x in blocks[p]:
                for y in blocks[q]:
                    if dist[w := x * n + y] < 0:
                        dist[w] = dist[y * n + x] = step
                        queue.append(w)
    return dist, touch


def is_synchronizing(d: Dfa) -> bool:
    """Whether some word maps the whole state set to a single state.

    Decided on pairs of states: the automaton is synchronizing iff every
    pair of distinct states can be mapped to a single state by some word.
    """
    return min(_merge_distances(d)[0]) >= 0


def pairchase_reset_word(d: Dfa) -> ResetResult:
    """Reset word by repeatedly collapsing the image pair nearest to merging.

    Each round picks, among the pairs of the current image, one with the
    shortest collapsing word (smallest ``(i, j)`` on ties) and applies the
    lexicographically least such word: from the pair, the least letter whose
    image is one step closer (one outside :func:`_merge_distances`'
    ``touch`` lists fixes the pair), until it collapses.  The walk depends
    on the pair alone, and the walks from (p, q) and (q, p) spell the same
    letters, so one flat table, ``walked``, keeps where in ``letters`` each
    pair's walk or its mirror's began, and a walk that reaches a walked
    pair splices the ``dist`` letters found there.  A pair i < j has one
    int64 key, ``dist * n^2 + i * n + j``, in an n x n matrix; a round's
    pair holds the least key among the image's states, read by two ``take``
    calls afresh each round, as the new image need not lie inside the old
    one.  The image loses a state per round: at most n - 1 rounds.

    Raises:
        ValueError: if the automaton is not synchronizing.
    """
    n = d.n
    dist, touch = _merge_distances(d)
    if min(dist) < 0:
        raise ValueError("automaton is not synchronizing")
    images = [t.images for t in d.transformations()]
    key = np.array(dist, dtype=np.int64) * (n * n) + np.arange(n * n, dtype=np.int64)
    key = key.reshape(n, n)
    key[np.tri(n, dtype=bool)] = np.iinfo(np.int64).max  # keep i < j only
    walked = array("q", [-1]) * (n * n)  # pair v -> where its walk began in ``letters``
    image = StateSet.full(n)
    letters: list[int] = []
    while image.cardinality() > 1:
        states = np.flatnonzero(_mask_bits(image.mask, n))
        v = int(key.take(states, 0).take(states, 1).min()) % (n * n)
        start = len(letters)
        while dist[v]:
            if (i := walked[v]) >= 0:
                letters += letters[i : i + dist[v]]
                break
            p, q = divmod(v, n)
            walked[v] = walked[q * n + p] = len(letters)
            for a in sorted(touch[p] | touch[q]):
                w = images[a][p] * n + images[a][q]
                if dist[w] == dist[v] - 1:
                    break
            letters.append(a)
            v = w
        image = apply_word(image, d, Word(tuple(letters[start:])))
    w = Word(tuple(letters))
    return ResetResult(w, len(w), Method.PAIRCHASE, _resets(d, w))


def _strata(d: Dfa, parent: array, letter: array) -> Iterator[np.ndarray]:
    """BFS closure of the (excluded, duplicate) pairs, one level per ``next``.

    Yields the levels of edge codes ``q * n + p`` in discovery order, and
    fills ``parent`` and ``letter`` (n^2 entries of -1) as the levels
    arrive: per reached code, its ``parent`` edge (-1 for a seed edge) and
    its ``letter``, the rank n-1 letter of a seed edge and the permutation
    letter that carried the parent onto any other edge.  Level 0 holds the
    seed edge of every rank n-1 letter; a witness word of an edge is the
    permutation letters met walking back to its seed edge, reversed, so an
    edge on level i has one of i letters.  The last level is at most 2n - 3:
    by that depth the edge digraph is strongly connected whenever the
    permutation letters form a 2-transitive group.

    Each level maps the frontier under every permutation letter at once,
    frontier-major and letter-minor, the order in which a queue would meet
    the images, and keeps the first occurrence of each unseen edge.  With
    many letters the frontier is mapped in consecutive slices, each marked
    before the next is mapped, which keeps that order.

    ``d`` needs a rank n-1 letter and a permutation letter;
    :func:`extension_reset_word` checks both before it calls this.
    """
    n = d.n
    perms = np.array(d.permutation_letters(), dtype=np.int64)
    # images[q, j]: the image of state q under the j-th permutation letter
    images = np.array([d.transformation(i).images for i in perms.tolist()], dtype=np.int64).T
    parent, letter = (np.frombuffer(a, dtype=np.int64) for a in (parent, letter))
    first: list[int] = []
    for x in d.rank_n_minus_one_letters():
        t = d.transformation(x)
        code = t.excluded_state() * n + t.duplicate_state()
        if letter[code] < 0:
            letter[code] = x
            first.append(code)
    frontier = np.array(first, dtype=np.int64)
    yield frontier
    # frontier edges mapped at once: at most about n^2 images in memory
    step = max(1, n * n // perms.size)
    for _ in range(2 * n - 3):
        found = []
        for lo in range(0, frontier.size, step):
            part = frontier[lo : lo + step]
            q, p = np.divmod(part, n)
            reached = (images[q] * n + images[p]).ravel()
            pos = np.flatnonzero(letter[reached] < 0)
            _, once = np.unique(reached[pos], return_index=True)
            pos = pos[np.sort(once)]
            fresh = reached[pos]
            parent[fresh] = part[pos // perms.size]
            letter[fresh] = perms[pos % perms.size]
            found.append(fresh)
        frontier = np.concatenate(found)
        if not frontier.size:
            return
        yield frontier


def _stratify(d: Dfa) -> tuple[list[np.ndarray], list[int], list[int]]:
    """:func:`_strata` grown to its last level: the levels, ``parent`` and ``letter``."""
    parent, letter = array("q", [-1]) * (d.n * d.n), array("q", [-1]) * (d.n * d.n)
    levels = list(_strata(d, parent, letter))
    return levels, parent.tolist(), letter.tolist()


def _extension_letters(
    ts: Sequence[Transformation], x: int, first_crossing: Callable[[int], int], parent: array, letter: array
) -> list[int]:
    """Extension chain ending in the rank n-1 letter ``x``: each step pulls
    the state mask ``r`` back through the letters of the parent chain (the
    pointers of :func:`_strata`) of the edge ``first_crossing(r)``, which
    meets them last first, the seed letter last, the order a preimage needs.
    The chains follow ``x`` in the order walked: the word is that reversed.
    """
    t = ts[x]
    n = t.n
    r = _preimage(t, 1 << t.duplicate_state())
    back = [x]
    steps = 0
    while r.bit_count() < n:
        code = first_crossing(r)
        while code >= 0:
            back.append(a := letter[code])
            r = _preimage(ts[a], r)
            code = parent[code]
        steps += 1
        if steps > n - 2:  # pragma: no cover - each step grows r strictly
            raise AssertionError("extension exceeded the guaranteed step count")
    return back[::-1]


def extension_reset_word(d: Dfa) -> ResetResult:
    """Reset word by chained subset extensions through the stratification.

    The word is built back to front: each step puts x w in front, where the
    pair (excluded(x) w, duplicate(x) w) crosses from outside the growing
    set R into it, so the preimage of R under x w is strictly larger.  At
    most n - 2 extensions of length at most 2n - 2 follow the initial rank
    n-1 letter, for a total of at most 2n^2 - 6n + 5 letters.  Each step
    takes the first crossing edge by (witness length, q, p), on the lowest
    level that has one: a level is grown, and sorted into place, only when
    the levels so far hold none.  Each rank n-1 letter is tried as the
    initial letter on the same levels; the first shortest outcome is kept.

    Raises:
        ValueError: if no letter has rank n-1, or the permutation letters
            neither generate the full monoid with it nor act 2-transitively.
    """
    n = d.n
    if n == 1:
        w = Word(())
        return ResetResult(w, 0, Method.EXTENSION, _resets(d, w))
    if not (xs := d.rank_n_minus_one_letters()):
        raise ValueError("extension requires a letter of rank n-1")
    ts = d.transformations()
    # A full transition monoid implies 2-transitive permutation letters, and
    # 2-transitivity is all the steps need: it makes the edge digraph
    # strongly connected, so each step finds a crossing edge.
    if not _is_two_transitive([ts[i].images for i in d.permutation_letters()], n):
        raise ValueError(
            "extension requires permutation letters generating the "
            "symmetric group or at least acting 2-transitively"
        )
    parent, letter = array("q", [-1]) * (n * n), array("q", [-1]) * (n * n)
    strata = _strata(d, parent, letter)
    # q and p of the edges grown so far, each level sorted by code: a witness on
    # level i has i letters and codes sort as (q, p) do, so by (len(w), q, p)
    qs, ps = np.empty((2, n * n), dtype=np.int64)
    filled = 0

    def first_crossing(r: int) -> int:
        nonlocal filled
        inside, lo = _mask_bits(r, n), 0
        while not (crossing := inside[ps[lo:filled]] & ~inside[qs[lo:filled]]).any():
            level = next(strata, None)
            if level is None:
                raise AssertionError("no edge of the stratification crosses into R")
            lo, filled = filled, filled + level.size
            np.divmod(np.sort(level), n, out=(qs[lo:filled], ps[lo:filled]))
        i = lo + int(crossing.argmax())
        return int(qs[i]) * n + int(ps[i])

    best: list[int] | None = None
    for x in xs:
        letters = _extension_letters(ts, x, first_crossing, parent, letter)
        if best is None or len(letters) < len(best):
            best = letters
    assert best is not None
    w = Word(tuple(best))
    return ResetResult(w, len(w), Method.EXTENSION, _resets(d, w))


def _simulate_cb(n: int, k: int) -> list[int]:
    """Letters of alternating merging/pairing rounds on the three-letter family.

    The rounds act on one int bitmask ``s``, the image of the state set under
    the letters emitted so far: ``a`` rotates it, ``b`` clears bit 0 when
    bits 0 and 1 are both set, and ``c`` swaps bits k-1 and k.  A state of
    ``s`` is an isolated token when neither cyclic neighbour is in ``s``; a
    rotation keeps their count, so it is recomputed only after a ``b`` or a
    ``c``.
    """
    full = (1 << n) - 1
    limit = 4 * n * math.ceil(math.log2(n))
    a, b, c = 0, 1, 2
    hi = 1 << k
    swap = hi | 1 << (k - 1)
    window = swap | 1 << (k + 1) % n  # states k-1, k and k+1

    def isolated(s: int) -> int:
        return (s & ~(s << 1 | s >> (n - 1)) & ~(s >> 1 | s << (n - 1))).bit_count()

    letters: list[int] = []
    s, size, iso = full, n, 0
    while size > 1:
        if iso == size:
            # pairing: tokens drift until one reaches the swapped slot alone,
            # then shuffles backwards, welding couples one by one
            while iso > 1:
                if s & window == hi:
                    letters.append(c)
                    s ^= swap
                    iso = isolated(s)
                else:
                    letters.append(a)
                    s = (s << 1 | s >> (n - 1)) & full
                if len(letters) > limit:  # pragma: no cover - bound is proven
                    raise AssertionError("pairing rounds exceeded the length bound")
        else:
            # merging: couples rotate onto the merge edge and collapse; a
            # merging round only ever begins with at most one isolated token
            assert iso <= 1
            while iso < size:
                if s & 3 == 3:
                    letters.append(b)
                    s ^= 1
                    size -= 1
                    iso = isolated(s)
                else:
                    letters.append(a)
                    s = (s << 1 | s >> (n - 1)) & full
                if len(letters) > limit:  # pragma: no cover - bound is proven
                    raise AssertionError("merging rounds exceeded the length bound")
    return letters


def cb_reset_word(n: int, k: int) -> ResetResult:
    """Reset word for the cyclic family with merge and adjacent-swap letters.

    For k = 1 the closed form b(cab)^{n-2} of length 3n - 5 is returned;
    otherwise alternating merging and pairing rounds are simulated under
    rules (M) and (P): merge when both merge-edge states carry tokens, swap
    when the swapped slot carries the only token in its neighbourhood.  The
    result is always shorter than 4 n ceil(log2 n).

    Raises:
        ValueError: if n < 3 or k is out of range.
    """
    d = cb(n, k)
    if k == 1:
        letters = [1] + [2, 0, 1] * (n - 2)
    else:
        letters = _simulate_cb(n, k)
    w = Word(tuple(letters))
    return ResetResult(w, len(w), Method.CB_ROUNDS, _resets(d, w))


@dataclass(frozen=True)
class PotentialBound:
    """Outcome of the subset-potential verification."""

    valid: bool
    bound: int | None
    counterexample: tuple[StateSet, int] | None


def _least_gain(images: Sequence[int], weights: Sequence[int], inside: int) -> int:
    """Least weight(S t) - weight(S) over the subsets S of ``inside``, where
    ``images`` is the letter t.

    The change splits over the fibres F_y of t: one that S meets adds w[y]
    minus the weight of S inside it, so each fibre takes all of its states
    in ``inside`` when that is negative, and adds nothing otherwise.
    """
    loss = [0] * len(images)
    for q, y in enumerate(images):
        if inside >> q & 1:
            loss[y] += weights[q]
    return sum(min(0, w - x) for w, x in zip(weights, loss))


def potential_lower_bound(
    d: Dfa,
    weights: Sequence[int],
    target: StateSet,
) -> PotentialBound:
    """Certified lower bound on the length of words sending Q into ``target``.

    Verifies over every non-empty subset S and letter a that the total
    weight of S a is at least the total weight of S minus one.  When that
    holds, any word w with Q w contained in ``target`` satisfies
    len(w) >= weight(Q) - weight(target), and this difference is returned;
    otherwise the least violating (subset, letter) pair is reported.

    No subset is enumerated: the least change over all S is found fibre by
    fibre (:func:`_least_gain`), O(n) per letter.  The least violating mask
    of a failing letter is fixed bit by bit from state n - 1 down: bit b is
    left clear when some subset of the bits kept so far and the bits below
    b still violates.  Such a subset holds every kept bit, as one missing
    kept bit c would have left c clear at its own step.

    Raises:
        ValueError: on negative weights or dimension mismatch.
    """
    n = d.n
    if target.n != n:
        raise ValueError("target does not match the automaton's state count")
    if len(weights) != n:
        raise ValueError("need exactly one weight per state")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    for letter, t in enumerate(d.transformations()):
        if _least_gain(t.images, weights, (1 << n) - 1) >= -1:
            continue
        mask = 0
        for b in reversed(range(n)):
            if _least_gain(t.images, weights, mask | (1 << b) - 1) >= -1:
                mask |= 1 << b
        return PotentialBound(False, None, (StateSet(n, mask), letter))
    bound = sum(weights) - sum(weights[q] for q in target.members())
    return PotentialBound(True, int(bound), None)
