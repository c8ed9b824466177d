"""Generators for the benchmark families used across the package.

Family codes (also the CLI tokens):

* ``cerny``   -- cycle plus a single merging edge; two letters.
* ``cb``      -- cycle, merging edge, and one adjacent swap; three letters.
* ``v``       -- chain of adjacent swaps plus one merging letter; n letters.
* ``rystsov`` -- the ``v`` family without its first swap; n - 1 letters.
* ``f``       -- two permutation letters on an odd number of states,
  built recursively from the 7-state base automaton.

States are 0-based internally.  The customary state names, which only the
DOT writer shows, live in ``_STATE_LABEL_BASE``: ``q1..qn`` for the families
written with 1-based names (``cerny``, ``cb``, ``f``) and ``q0..q{n-1}`` for
``v`` and ``rystsov``.
"""

from __future__ import annotations

from .core import Dfa, Transformation

FAMILY_CODES = ("cerny", "cb", "v", "rystsov", "f")

#: The index of the first state in each family's customary names ``q<i>``.
_STATE_LABEL_BASE = {"cerny": 1, "cb": 1, "v": 0, "rystsov": 0, "f": 1}


def cerny(n: int) -> Dfa:
    """Cycle letter ``a`` and a letter ``b`` merging the first two states."""
    if n < 2:
        raise ValueError("cerny needs n >= 2")
    a = Transformation(tuple((i + 1) % n for i in range(n)))
    b_images = list(range(n))
    b_images[0] = 1
    b = Transformation(tuple(b_images))
    return Dfa(n, (("a", a), ("b", b)))


def cb(n: int, k: int) -> Dfa:
    """The cycle ``a`` and merging edge ``b`` of :func:`cerny`, and swap ``c``
    of states k-1 and k.

    With 1-based display names: ``b`` sends q1 to q2 and ``c`` exchanges
    q_k with q_{k+1}.
    """
    if n < 3:
        raise ValueError("cb needs n >= 3")
    if not 1 <= k <= n - 1:
        raise ValueError("cb needs 1 <= k <= n - 1")
    c_images = list(range(n))
    c_images[k - 1], c_images[k] = k, k - 1
    return Dfa(n, cerny(n).letters + (("c", Transformation(tuple(c_images))),))


def v(n: int) -> Dfa:
    """Adjacent swaps ``a1..a{n-1}`` plus the merging letter ``an``.

    Letter ``aj`` (1 <= j <= n-1) exchanges states j-1 and j; letter ``an``
    sends both 0 and 1 to 0 and fixes everything else.
    """
    if n < 2:
        raise ValueError("v needs n >= 2")
    letters = []
    for j in range(1, n):
        images = list(range(n))
        images[j - 1], images[j] = j, j - 1
        letters.append((f"a{j}", Transformation(tuple(images))))
    merge = list(range(n))
    merge[1] = 0
    letters.append((f"a{n}", Transformation(tuple(merge))))
    return Dfa(n, tuple(letters))


def rystsov(n: int) -> Dfa:
    """The ``v`` family with the first swap removed; state 0 becomes a sink."""
    if n < 2:
        raise ValueError("rystsov needs n >= 2")
    return Dfa(n, v(n).letters[1:])


# -- the two-permutation-letter family -------------------------------------

# 7-state base automaton (0-based images).
_F7_A = (1, 2, 3, 0, 6, 5, 4)
_F7_B = (5, 1, 4, 3, 2, 0, 6)


def f(n: int) -> Dfa:
    """Automaton with two permutation letters and a large pair diameter.

    Built by repeatedly adding two states: the letter that fixed the old
    next-to-top state gets an exchange with the first new state, the letter
    that fixed the old top state gets an exchange with the second, and each
    letter fixes the new state the other one moves.  For n = 3 (mod 4),
    ``pairgraph.pair_certificate(n)`` certifies the pair diameter.
    """
    if n < 7 or n % 2 == 0:
        raise ValueError("f needs odd n >= 7")
    a = list(_F7_A)
    b = list(_F7_B)
    for size in range(7, n, 2):
        a.extend((size, size + 1))
        b.extend((size, size + 1))
        if a[size - 2] == size - 2:
            alpha, beta = a, b
        else:
            alpha, beta = b, a
        alpha[size - 2] = size
        alpha[size] = size - 2
        beta[size - 1] = size + 1
        beta[size + 1] = size - 1
    return Dfa(n, (("a", Transformation(tuple(a))), ("b", Transformation(tuple(b)))))


def build_family(family: str, n: int, k: int | None = None) -> Dfa:
    """The automaton of a family code; ``k`` is taken by ``cb`` only, and the
    builder checks ``n`` and ``k``."""
    if family not in FAMILY_CODES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_CODES}")
    if family == "cb":
        if k is None:
            raise ValueError("cb needs 1 <= k <= n - 1")
        return cb(n, k)
    if k is not None:
        raise ValueError(f"family {family!r} takes no k parameter")
    return {"cerny": cerny, "v": v, "rystsov": rystsov, "f": f}[family](n)
