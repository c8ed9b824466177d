"""Reset thresholds and reset-word synthesis.

Four synthesizers are provided: exact subset BFS (optimal, exponential),
pair chasing (greedy merging guided by one BFS on the pair rows of
:mod:`synchrokit.pairgraph`, towards a "merged" vertex), subset
extension through the excluded/duplicate stratification (quadratic bound
for automata whose transition monoid is all transformations), and the
merging/pairing round simulation for the three-letter cyclic family.
Every synthesizer machine-checks its output and reports the check in the
``verified`` flag of the returned :class:`ResetResult`.

The stratification behind the quadratic bound, levels of (excluded,
duplicate) pairs with parent pointers, is the private :func:`_stratify`,
and the round simulation :func:`_simulate_cb` returns letters only; the
tests check both through these private functions.

The searches over all 2^n state subsets (``reset_threshold_exact``,
``potential_lower_bound``) check, before allocating anything, that their
bytes fit in physical memory; the exact one also stops at 32 states, as
its subsets are ``uint32`` masks.

One forward subset BFS, :func:`_forward_bfs`, serves both the exact search
and the reset distances of many automata at once (:func:`_reset_distances`,
behind the random reset-threshold experiment of :mod:`synchrokit.search`).
It maps a batch of automata with the same state and letter counts level by
level, automaton t's subset S as the code ``t << n | S``; a batch spans at
most ``_BATCH_SUBSETS`` (2^16) subsets but always holds one automaton, so
from 16 states up it holds exactly one, and its memory is checked for the
whole batch.  ``reset_threshold_exact`` runs it on a batch of one, which
reads its tables with no automaton offset.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Dfa, StateSet, Word, apply_word
from .families import cb
from .monoid import _inv, is_two_transitive
from .pairgraph import _bfs, _pair_rows, _predecessors

#: Bytes per subset the exact search may hold: ``uint16`` distances (2), good
#: flags (1), ``uint32`` levels (4), and one chunk of at most 2^n images with
#: their fresh copy and its unique part (12), byte indices (8) and the flags
#: of the neighbour test (1).
_EXACT_BYTES = 2 + 1 + 4 + 12 + 8 + 1
#: Bytes per letter: image tables (4 bytes x 256 x 4) and chunk scratch (20 x 256).
_EXACT_LETTER_BYTES = 4 * 256 * 4 + 20 * 256
#: Bytes per subset a batch of several automata adds: each code's offset
#: into the tables while its chunk is mapped (4).
_OFFSET_BYTES = 4
#: Subsets one batch of :func:`_reset_distances` may span: at most
#: ``_BATCH_SUBSETS >> n`` automata of n states, and one from n = 16 up.
#: Measured on 500 random trials of n = 10 (2 cores, best of 5, two runs):
#: 194-210 ms at 2^12, 116-124 ms at 2^14, 103-124 ms at 2^16 and
#: 98-114 ms at 2^18, so larger batches gain no more than host noise.
_BATCH_SUBSETS = 1 << 16
#: Bytes per subset of ``potential_lower_bound``: ``int64`` weights and
#: images (16), the comparison's ``int64`` operands (16), two flag arrays (2).
_POTENTIAL_BYTES = 16 + 16 + 2


class _NotSynchronizing:
    """Sentinel outcome of the exact search on non-synchronizing input."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_SYNCHRONIZING"

    def __bool__(self) -> bool:
        return False


NOT_SYNCHRONIZING = _NotSynchronizing()


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
    """Bytes of physical memory (POSIX ``sysconf``), the limit of both searches."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(n: int, need: int) -> None:
    """Refuse, before it allocates, a search needing more than physical memory."""
    if need > (have := _physical_memory()):
        raise ValueError(
            f"a subset search over {n} states needs up to {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )


def _subset_table(bits: Sequence[int]) -> list[int]:
    """``table[v]``: the OR of ``bits[i]`` over the set bits i of v."""
    table = [0]
    for bit in bits:
        table += [v | bit for v in table]
    return table


def _letter_tables(dfas: Sequence[Dfa]) -> np.ndarray:
    """``tables[b, a, t * 256 + v]``: the image under letter a of automaton t
    of byte b's bit set v, with ``t << n`` set in the byte-0 entries.

    The automata share n and the letter count; each table doubles once per
    bit, ``table[..., 2^i : 2^(i+1)] = table[..., :2^i] | bit_i``, for all
    letters and automata at once.  The whole batch's memory is checked
    before anything is allocated.
    """
    n, m, trials = dfas[0].n, dfas[0].m, len(dfas)
    if n > 32:
        raise ValueError(f"exact subset search handles at most 32 states, not {n}")
    need = trials * ((_EXACT_BYTES << n) + _EXACT_LETTER_BYTES * m)
    if trials > 1:
        need += _OFFSET_BYTES * trials << n
    _require_memory(n, need)
    nbytes = (n + 7) // 8
    images = np.array([[t.images for t in d.transformations()] for d in dfas], dtype=np.uint32)
    bits = np.zeros((trials, m, 8 * nbytes), dtype=np.uint32)
    bits[:, :, :n] = np.uint32(1) << images
    # bits[b, a, t, i]: the image bit of state 8b + i, 0 past the last state
    bits = bits.reshape(trials, m, nbytes, 8).transpose(2, 1, 0, 3)
    tables = np.zeros((nbytes, m, trials, 256), dtype=np.uint32)
    for i in range(min(8, n)):  # entries past 2^n are never read
        tables[..., 1 << i : 2 << i] = tables[..., : 1 << i] | bits[..., i, None]
    if trials > 1:
        tables[0] |= (np.arange(trials, dtype=np.uint32) << n)[:, None]
    return tables.reshape(nbytes, m, trials * 256)


def _by_chunks(fn, codes: np.ndarray, span: int, m: int) -> np.ndarray:
    """``fn`` over slices of ``codes`` with at most ``span`` images (or 256 codes), joined."""
    step = max(256, span // m)
    if codes.size <= step:
        return fn(codes)
    return np.concatenate([fn(codes[lo : lo + step]) for lo in range(0, codes.size, step)])


def _images(tables: np.ndarray, codes: np.ndarray, n: int) -> np.ndarray:
    """Images of every code under every letter, shape (letters, codes).

    With several automata, code ``t << n | S`` reads automaton t's tables at
    ``t * 256 + byte``; with one the code is the subset and needs no offset.
    """
    # take() gathers about twice as fast as the equivalent [:, index] here
    if tables.shape[2] == 256:
        img = tables[0].take(codes & 0xFF, axis=1)
        for b in range(1, len(tables)):
            img |= tables[b].take((codes >> (8 * b)) & 0xFF, axis=1)
        return img
    base = (codes >> n) << 8
    img = np.zeros((tables.shape[1], codes.size), dtype=np.uint32)
    for b in range(len(tables)):
        # the bits of S in byte b, without the automaton's bits above S
        index = (codes >> (8 * b)) & ((1 << min(8, n - 8 * b)) - 1)
        index |= base
        img |= tables[b].take(index, axis=1)
    return img


def _fresh_images(
    tables: np.ndarray, dist: np.ndarray, codes: np.ndarray, n: int, level: int, keep: np.ndarray
) -> np.ndarray:
    """Unvisited images of ``codes``, sorted and unique, marked in ``dist``.

    ``keep`` is scratch for the neighbour test, one flag per image at least.
    """
    img = _images(tables, codes, n).ravel()
    fresh = img[dist[img] == 0]
    if fresh.size:
        # an in-place sort plus a neighbour test: np.unique is an order of
        # magnitude slower on these arrays under numpy 2.4
        fresh.sort()
        new = keep[: fresh.size]
        new[0] = True
        np.not_equal(fresh[1:], fresh[:-1], out=new[1:])
        fresh = fresh[new]
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
    m, trials = tables.shape[1], tables.shape[2] >> 8
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
        if dist[singles].any():
            hit = dist[singles].any(axis=1)
            for code in offsets[hit].tolist():
                distances[code >> n] = len(levels) - 1
            if hit.all():
                return distances, levels, dist
            offsets, singles = offsets[~hit], singles[~hit]
            live = np.zeros(trials, dtype=bool)
            live[offsets >> n] = True
            frontier = frontier[live[frontier >> n]]
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
    each, and every batch checks its own memory need.
    """
    if not dfas:
        return []
    size = max(1, _BATCH_SUBSETS >> dfas[0].n)
    distances: list[int | None] = []
    for lo in range(0, len(dfas), size):
        batch = dfas[lo : lo + size]
        distances += _forward_bfs(_letter_tables(batch), batch[0].n)[0]
    return distances


def reset_threshold_exact(d: Dfa) -> tuple[int, Word] | _NotSynchronizing:
    """Exact reset threshold by level-synchronous BFS over state subsets.

    Returns ``(rt, word)`` where ``word`` is the lexicographically least
    shortest reset word under the letter order, or ``NOT_SYNCHRONIZING``
    when no singleton subset is reachable.

    The forward pass maps whole numpy frontiers under every letter through
    per-byte image tables, level by level from the full set, until a level
    holds a singleton.  The witness comes from a backward sweep: a subset
    is good if it is a singleton on the last level or some letter maps it
    to a good subset on the next level; the word then follows, from the
    full set, the least letter leading to a good subset one level further.

    Memory is at most 28 * 2^n + 9216 * m bytes for m letters (see
    ``_EXACT_BYTES``): cerny(25) needs at most 940 MB.

    Raises:
        ValueError: past 32 states (subsets are ``uint32`` masks) or when
            that bound exceeds physical memory, both before any allocation;
            pairchase_reset_word and extension_reset_word take larger inputs.
    """
    n = d.n
    tables = _letter_tables([d])
    (rt,), levels, dist = _forward_bfs(tables, n)
    if rt is None:
        return NOT_SYNCHRONIZING
    # Images of a level-k subset lie on levels <= k + 1, and good subsets on
    # levels > k are all marked before level k is swept, so a good image
    # found here is always on level k + 1; level k is marked only once all
    # its chunks are mapped, so that it never sees itself.
    good = np.zeros(1 << n, dtype=bool)
    last = levels[rt]
    good[last[(last & (last - 1)) == 0]] = True
    for k in range(rt - 1, -1, -1):
        marked = _by_chunks(
            lambda s: s[good[_images(tables, s, n)].any(axis=0)], levels[k], 1 << n, d.m
        )
        good[marked] = True
    # Walking forward, a good image may also sit on an earlier level; only
    # one on the next level continues a shortest word.
    letters: list[int] = []
    current = levels[0]
    for k in range(rt):
        img = _images(tables, current, n)[:, 0]
        letter = int(np.argmax(good[img] & (dist[img] == k + 2)))
        letters.append(letter)
        current = img[letter : letter + 1]
    return rt, Word(tuple(letters))


def _merge_distances(d: Dfa) -> tuple[list[tuple[int, ...]], list[int]]:
    """Pair rows over every letter, the merged vertex's empty row last, and
    ``dist[v]``: the length of a shortest word collapsing pair ``v`` (-1 if none).
    """
    rows = _pair_rows(d.n, [t.images for t in d.transformations()])
    merged = len(rows)
    rows.append(())
    dist, _ = _bfs(_predecessors(rows), merged)
    return rows, dist


def is_synchronizing(d: Dfa) -> bool:
    """Whether some word maps the whole state set to a single state.

    Decided on pairs of states: the automaton is synchronizing iff every
    pair of distinct states can be mapped to a single state by some word.
    """
    return min(_merge_distances(d)[1]) >= 0


def pairchase_reset_word(d: Dfa) -> ResetResult:
    """Reset word by repeatedly collapsing the image pair nearest to merging.

    Each round picks, among the pairs of the current image, one with the
    shortest collapsing word (smallest ``(i, j)`` on ties) and applies the
    lexicographically least such word: from the pair, the least letter
    whose image is one step closer to the merged vertex, until it is
    reached; that letter depends on the pair alone, so it is found on the
    pair's first visit and reused.  The pairs are sorted by distance once;
    each round scans that order from the start, as the new image need not
    lie inside the old one.
    The image loses a state every round, so there are at most n - 1 rounds.

    Raises:
        ValueError: if the automaton is not synchronizing.
    """
    n = d.n
    rows, dist = _merge_distances(d)
    if min(dist) < 0:
        raise ValueError("automaton is not synchronizing")
    merged = len(rows) - 1
    pair_bits = [1 << i | 1 << j for i in range(n) for j in range(i + 1, n)]
    ranked = sorted(range(merged), key=dist.__getitem__)
    toward = [-1] * merged  # the least slot moving pair v one step closer
    image = StateSet.full(n)
    letters: list[int] = []
    while image.cardinality() > 1:
        mask = image.mask
        v = next(v for v in ranked if pair_bits[v] & mask == pair_bits[v])
        step: list[int] = []
        while v != merged:
            if (slot := toward[v]) < 0:
                slot = toward[v] = next(
                    s for s, w in enumerate(rows[v]) if dist[w] == dist[v] - 1
                )
            step.append(slot)
            v = rows[v][slot]
        image = apply_word(image, d, Word(tuple(step)))
        letters.extend(step)
    w = Word(tuple(letters))
    return ResetResult(w, len(w), Method.PAIRCHASE, _resets(d, w))


#: ``parent`` of an edge no level has reached; a seed edge has parent -1.
_UNSEEN = -2


def _stratify(d: Dfa) -> tuple[list[np.ndarray], list[int], list[int], list[int]]:
    """BFS closure of the (excluded, duplicate) pairs under permutation letters.

    Returns the levels of edge codes ``q * n + p`` in discovery order and,
    per code, its ``seed`` letter (seed edges only), ``parent`` edge (-1 for
    a seed edge, ``_UNSEEN`` if never reached) and the permutation
    ``letter`` that carried the parent onto it.  Level 0 holds the seed edge
    of every rank n-1 letter; a witness word of an edge is the letters met
    walking back to its seed edge, reversed, so an edge on level i has one
    of i letters.  Levels stop at 2n - 3: by that depth the edge digraph is
    strongly connected whenever the permutation letters form a 2-transitive
    group.

    Each level maps the frontier under every permutation letter at once,
    frontier-major and letter-minor, the order in which a queue would meet
    the images, and keeps the first occurrence of each unseen edge.  With
    many letters the frontier is mapped in consecutive slices, each marked
    before the next is mapped, which keeps that order.

    Raises:
        ValueError: if there is no rank n-1 letter or no permutation letter.
    """
    n = d.n
    seeds = d.rank_n_minus_one_letters()
    if not seeds:
        raise ValueError("no letter of rank n-1 to seed the stratification")
    perms = np.array(d.permutation_letters(), dtype=np.int64)
    if not perms.size:
        raise ValueError("no permutation letters to grow the stratification")
    # images[q, j]: the image of state q under the j-th permutation letter
    images = np.array([d.transformation(i).images for i in perms.tolist()], dtype=np.int64).T
    parent = np.full(n * n, _UNSEEN, dtype=np.int64)
    letter = np.full(n * n, -1, dtype=np.int64)
    seed = np.full(n * n, -1, dtype=np.int64)
    first: list[int] = []
    for x in seeds:
        t = d.transformation(x)
        code = t.excluded_state() * n + t.duplicate_state()
        if parent[code] == _UNSEEN:
            parent[code], seed[code] = -1, x
            first.append(code)
    levels = [np.array(first, dtype=np.int64)]
    # frontier edges mapped at once: at most about n^2 images in memory
    step = max(1, n * n // perms.size)
    for _ in range(2 * n - 3):
        frontier, found = levels[-1], []
        for lo in range(0, frontier.size, step):
            part = frontier[lo : lo + step]
            q, p = np.divmod(part, n)
            reached = (images[q] * n + images[p]).ravel()
            pos = np.flatnonzero(parent[reached] == _UNSEEN)
            _, once = np.unique(reached[pos], return_index=True)
            pos = pos[np.sort(once)]
            fresh = reached[pos]
            parent[fresh] = part[pos // perms.size]
            letter[fresh] = perms[pos % perms.size]
            found.append(fresh)
        fresh = np.concatenate(found)
        if not fresh.size:
            break
        levels.append(fresh)
    return levels, seed.tolist(), parent.tolist(), letter.tolist()


def _extension_letters(
    d: Dfa, order: np.ndarray, seed: list[int], parent: list[int], letter: list[int], x: int
) -> list[int]:
    """Extension chain ending in the rank n-1 letter ``x``, back to front.

    ``order`` lists the reached edge codes by (witness length, q, p), and
    ``seed``, ``parent`` and ``letter`` are the pointers of
    :func:`_stratify`; each step takes the first edge crossing into ``r``.
    The preimage of ``r`` under the step's word follows the edge's parent
    chain, which meets the witness letters last first, the order a preimage
    needs: each permutation letter maps ``r`` through its inverse, and the
    seed letter through :meth:`Transformation.preimage_of`.
    """
    n = d.n
    inverses = {i: _inv(d.transformation(i).images) for i in d.permutation_letters()}
    qs, ps = np.divmod(order, n)
    t = d.transformation(x)
    r = t.preimage_of((t.duplicate_state(),))
    word = [x]
    steps = 0
    while len(r) < n:
        inside = np.zeros(n, dtype=bool)
        inside[list(r)] = True
        crossing = inside[ps] & ~inside[qs]
        i = int(crossing.argmax())
        if not crossing[i]:
            raise ValueError(
                "no crossing edge in the stratification; "
                "the permutation letters do not act 2-transitively"
            )
        code, chain = int(order[i]), []
        while parent[code] >= 0:
            inv = inverses[letter[code]]
            r = [inv[s] for s in r]
            chain.append(letter[code])
            code = parent[code]
        r = d.transformation(seed[code]).preimage_of(r)
        word = [seed[code], *reversed(chain), *word]
        steps += 1
        if steps > n - 2:  # pragma: no cover - each step grows r strictly
            raise AssertionError("extension exceeded the guaranteed step count")
    return word


def extension_reset_word(d: Dfa) -> ResetResult:
    """Reset word by chained subset extensions through the stratification.

    The word is assembled back to front: each step prepends x w, where the
    pair (excluded(x) w, duplicate(x) w) crosses from outside the growing
    set R into it, so the preimage of R under x w is strictly larger.  At
    most n - 2 extensions of length at most 2n - 2 follow the initial rank
    n-1 letter, for a total of at most 2n^2 - 6n + 5 letters.  Each step
    takes the first crossing edge of one list sorted once per call by
    (witness length, q, p).  When several rank n-1 letters exist, each is
    tried as the initial letter and the first shortest outcome is kept.

    Raises:
        ValueError: if no letter has rank n-1, or the permutation letters
            neither generate the full monoid with it nor act 2-transitively.
    """
    n = d.n
    if n == 1:
        return ResetResult(Word(()), 0, Method.EXTENSION, True)
    if not d.rank_n_minus_one_letters():
        raise ValueError("extension requires a letter of rank n-1")
    # A full transition monoid implies 2-transitive permutation letters, and
    # 2-transitivity is all the steps need: it makes the edge digraph
    # strongly connected, so each step finds a crossing edge.
    perms = [d.transformation(i) for i in d.permutation_letters()]
    if not perms or not is_two_transitive(perms, n):
        raise ValueError(
            "extension requires permutation letters generating the "
            "symmetric group or at least acting 2-transitively"
        )
    levels, seed, parent, letter = _stratify(d)
    # a witness on level i has i letters, and codes sort as (q, p) do, so
    # this is the order by (len(w), q, p)
    order = np.concatenate([np.sort(level) for level in levels])
    best: list[int] | None = None
    for x in d.rank_n_minus_one_letters():
        letters = _extension_letters(d, order, seed, parent, letter, x)
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

    Memory is at most 34 * 2^n bytes (see ``_POTENTIAL_BYTES``).

    Raises:
        ValueError: on negative weights or dimension mismatch, or when
            34 * 2^n bytes exceed the machine's physical memory (checked
            before any allocation).
    """
    n = d.n
    if target.n != n:
        raise ValueError("target does not match the automaton's state count")
    if len(weights) != n:
        raise ValueError("need exactly one weight per state")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    _require_memory(n, _POTENTIAL_BYTES << n)
    # tables over subset masks, doubled once per state like _subset_table
    total = np.zeros(1, dtype=np.int64)
    for w in weights:
        total = np.concatenate((total, total + w))
    for letter, t in enumerate(d.transformations()):
        image = np.zeros(1, dtype=np.int64)
        for q in t.images:
            image = np.concatenate((image, image | (1 << q)))
        bad = total[image] < total - 1
        if bad.any():
            mask = int(np.nonzero(bad)[0][0])
            return PotentialBound(False, None, (StateSet(n, mask), letter))
    bound = int(total[-1] - total[target.mask])
    return PotentialBound(True, bound, None)
