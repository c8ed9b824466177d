"""Core types for deterministic complete automata over a totally mapped alphabet.

Conventions used throughout the package:

* States are the integers ``0 .. n-1``; every stored image is 0-based.
* A letter is a total transformation of the state set, stored as a tuple
  ``images`` with ``images[q]`` the successor of state ``q``.
* Words act left to right: applying ``uv`` means applying ``u`` first.
* Subsets of states are ``StateSet`` values, bit masks held in a Python
  int, so any ``n`` is allowed.  :func:`apply_word`, the one rule for moving
  a state set under a word, acts on the mask through each letter's shift
  groups (``_Groups``), one shift per group, so a letter costs as many
  shifts as it has groups: a few for the paper's families, up to n for a
  random permutation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Transformation:
    """A total map from ``{0..n-1}`` to itself."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("transformation needs at least one state")
        for x in self.images:
            # a bool is written as True/False and a numpy integer breaks the
            # JSON writer: neither would be read back
            if type(x) is not int:
                raise ValueError(f"image {x!r} is not an int")
            if not 0 <= x < n:
                raise ValueError(f"image {x!r} out of range for n={n}")
        object.__setattr__(self, "images", tuple(self.images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, state: int) -> int:
        return self.images[state]

    def rank(self) -> int:
        """Size of the image set, computed once and cached; pickles drop the cache."""
        return self._rank

    def is_permutation(self) -> bool:
        return self.rank() == self.n

    def excluded_state(self) -> int:
        """The unique state missing from the image (rank must be n-1)."""
        n = self.n
        if self.rank() != n - 1:
            raise ValueError("excluded state is defined only for rank n-1")
        missing = set(range(n)) - set(self.images)
        return missing.pop()

    def duplicate_state(self) -> int:
        """The unique image state with two preimages (rank must be n-1)."""
        n = self.n
        if self.rank() != n - 1:
            raise ValueError("duplicate state is defined only for rank n-1")
        # the images sum to every state but the excluded one, plus the duplicate
        return sum(self.images) - n * (n - 1) // 2 + self.excluded_state()

    def __getstate__(self) -> dict:
        # pickles carry the images only, not the caches below
        return {"images": self.images}

    @cached_property
    def _rank(self) -> int:
        return len(set(self.images))

    @cached_property
    def _groups(self) -> _Groups:
        return _shift_groups(self.images)

    @cached_property
    def _powers(self) -> tuple[int, list[tuple[list[int], int, list[int]]], dict[int, _Groups]] | None:
        """A permutation's order, its cycles of two or more states and the
        groups of the powers :func:`_power_groups` kept; ``None`` for other maps.

        Each cycle comes with its state mask and the positions where a run
        of consecutive ascending states begins, position 0 first: the
        n-cycle ``q -> q + 1`` is one run, a random cycle about one run per
        state."""
        if not self.is_permutation():
            return None
        cycles = [
            (cycle, sum(1 << q for q in cycle),
             [0, *(i for i in range(1, len(cycle)) if cycle[i] != cycle[i - 1] + 1)])
            for cycle in _cycles(self.images)
            if len(cycle) > 1
        ]
        return math.lcm(*(len(cycle) for cycle, _, _ in cycles)), cycles, {}


def _cycles(p: Sequence[int]) -> list[list[int]]:
    """The cycles of a permutation, each from its least state, in order of that state."""
    seen, cycles = bytearray(len(p)), []
    for q, x in enumerate(p):
        if not seen[q]:
            cycles.append(cycle := [q])
            while x != q:
                cycle.append(x)
                seen[x] = 1
                x = p[x]
    return cycles


def _check_letter_name(name: str) -> None:
    if not name or not name.isascii() or any(c.isspace() for c in name):
        raise ValueError(f"letter name {name!r} must be non-empty ASCII without whitespace")


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton: ``n`` states and named letters.

    States carry no names; the customary names of the families are display
    conventions of :mod:`synchrokit.families`, used by the DOT writer only.
    """

    n: int
    letters: tuple[tuple[str, Transformation], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("automaton needs at least one state")
        if not self.letters:
            raise ValueError("automaton needs at least one letter")
        object.__setattr__(self, "letters", tuple((str(a), t) for a, t in self.letters))
        names = [a for a, _ in self.letters]
        for a in names:
            _check_letter_name(a)
        if len(set(names)) != len(names):
            raise ValueError("letter names must be unique")
        for a, t in self.letters:
            if t.n != self.n:
                raise ValueError(f"letter {a!r} acts on {t.n} states, expected {self.n}")

    @property
    def m(self) -> int:
        return len(self.letters)

    def letter_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.letters)

    def transformations(self) -> tuple[Transformation, ...]:
        return tuple(t for _, t in self.letters)

    def transformation(self, index: int) -> Transformation:
        return self.letters[index][1]

    def letter_index(self, name: str) -> int:
        for i, (a, _) in enumerate(self.letters):
            if a == name:
                return i
        raise KeyError(f"no letter named {name!r}")

    def permutation_letters(self) -> tuple[int, ...]:
        return tuple(i for i, (_, t) in enumerate(self.letters) if t.is_permutation())

    def rank_n_minus_one_letters(self) -> tuple[int, ...]:
        return tuple(i for i, (_, t) in enumerate(self.letters) if t.rank() == self.n - 1)


@dataclass(frozen=True)
class Word:
    """A word over an automaton's alphabet, stored as letter indices."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def names(self, d: Dfa) -> tuple[str, ...]:
        names = d.letter_names()
        for i in self.letters:
            if not 0 <= i < len(names):
                raise ValueError(f"letter index {i} out of range")
        return tuple(names[i] for i in self.letters)


@dataclass(frozen=True)
class StateSet:
    """A subset of ``{0..n-1}``; bit q of the int ``mask`` marks state q."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("StateSet needs at least one state")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("mask has bits outside the state range")

    @classmethod
    def full(cls, n: int) -> "StateSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def of(cls, n: int, states: Iterable[int]) -> "StateSet":
        mask = 0
        for q in states:
            if not 0 <= q < n:
                raise ValueError(f"state {q} out of range for n={n}")
            mask |= 1 << q
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n) if self.mask >> q & 1)

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.n and (self.mask >> state) & 1 == 1

    def __len__(self) -> int:
        return self.cardinality()


#: Shift groups of a map: the mask of its fixed states, then ``(src, d)``
#: per offset d > 0 and per offset -d < 0, ``src`` the states sent d up
#: (respectively d down).  A merge of two states has one group, a
#: transposition and every power of the n-cycle two.
_Groups = tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _shift_groups(images: Sequence[int]) -> _Groups:
    by_offset: dict[int, int] = {}
    for q, x in enumerate(images):
        by_offset[x - q] = by_offset.get(x - q, 0) | 1 << q
    fixed = by_offset.pop(0, 0)
    ups = tuple((src, d) for d, src in by_offset.items() if d > 0)
    return fixed, ups, tuple((src, -d) for d, src in by_offset.items() if d < 0)


def _power_groups(t: Transformation, k: int) -> _Groups:
    """Groups of ``t^k`` for a permutation ``t``, kept with ``t`` by k modulo
    its order until the kept ones hold 4n groups: all n powers of an n-cycle
    are kept, few of a permutation with many groups per power.

    ``t^k`` moves each cycle j = k mod L places along it, L its length.  Cut
    at its run starts and at those starts shifted back by j, a cycle falls
    into pieces of consecutive ascending states whose images are consecutive
    too, so each piece is one interval mask moved by one offset: the cost is
    O(runs) big-int operations, two pieces for a power of the n-cycle."""
    order, cycles, kept = t._powers
    if (groups := kept.get(k := k % order)) is None:
        fixed, by_offset = (1 << t.n) - 1, {}
        for cycle, mask, starts in cycles:
            size = len(cycle)
            if not (j := k % size):
                continue
            fixed ^= mask
            cuts = sorted({*starts, *((r - j) % size for r in starts)})
            for s, e in zip(cuts, [*cuts[1:], size]):
                q = cycle[s]
                d = cycle[(s + j) % size] - q
                by_offset[d] = by_offset.get(d, 0) | ((1 << (e - s)) - 1) << q
        ups = tuple((src, d) for d, src in by_offset.items() if d > 0)
        groups = fixed, ups, tuple((src, -d) for d, src in by_offset.items() if d < 0)
        if sum(1 + len(up) + len(down) for _, up, down in kept.values()) < 4 * t.n:
            kept[k] = groups
    return groups


def _preimage(t: Transformation, mask: int) -> int:
    """The states ``t`` sends into ``mask``: each group shifted back by its offset."""
    fixed, ups, downs = t._groups
    out = mask & fixed
    for src, d in ups:
        out |= mask >> d & src
    for src, d in downs:
        out |= mask << d & src
    return out


def apply_word(s: StateSet, d: Dfa, w: Word) -> StateSet:
    """Image of a state set under a word, applied left to right.

    The mask moves one run a^k of a repeated letter at a time: a permutation
    maps the run in one step through the groups of a^k; any other letter is
    applied again and again, stopping early once the mask maps onto itself,
    after which the rest of the run changes nothing.
    """
    if d.n != s.n:
        raise ValueError("state set and automaton have different state counts")
    letters = d.transformations()
    mask = s.mask
    for i, run in groupby(w.letters):
        if not 0 <= i < len(letters):
            raise ValueError(f"letter index {i} out of range")
        k, t = len([*run]), letters[i]
        if k > 1 and t._powers is not None:
            fixed, ups, downs = _power_groups(t, k)
            k = 1
        else:
            fixed, ups, downs = t._groups
        while k:  # k counts the applications left, 0 once the mask maps onto itself
            image = mask & fixed
            for src, shift in ups:
                image |= (mask & src) << shift
            for src, shift in downs:
                image |= (mask & src) >> shift
            k = k - 1 if image != mask else 0
            mask = image
    return StateSet(s.n, mask)


def word_transformation(d: Dfa, w: Word) -> Transformation:
    """The single transformation realized by a word."""
    letters = [t.images for t in d.transformations()]
    images = tuple(range(d.n))
    for i in w:
        t = letters[i]
        images = tuple(t[q] for q in images)
    return Transformation(images)


# ---------------------------------------------------------------------------
# File formats.
#
# Text format (line-oriented, ASCII, LF):
#   line 1:         "n m"
#   lines 2..m+1:   "<letter-name> <img_0> <img_1> ... <img_{n-1}>"
# JSON mirror: {"n": int, "letters": [{"name": str, "images": [int, ...]}]}
# ---------------------------------------------------------------------------


def format_dfa_text(d: Dfa) -> str:
    lines = [f"{d.n} {d.m}"]
    for name, t in d.letters:
        lines.append(name + " " + " ".join(str(x) for x in t.images))
    return "\n".join(lines) + "\n"


def _digits(token: str) -> bool:
    """Is ``token`` a string of ASCII decimal digits?  ``int`` also takes a
    sign, underscores and non-ASCII digits, which the format does not."""
    return token.isascii() and token.isdigit()


def parse_dfa_text(text: str) -> Dfa:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty automaton description")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    if not all(map(_digits, head)):
        raise ValueError("first line must be 'n m' with integers")
    n, m = int(head[0]), int(head[1])
    if len(lines) != 1 + m:
        raise ValueError(f"expected {m} letter lines, found {len(lines) - 1}")
    letters = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 1 + n:
            raise ValueError(f"letter line needs a name and {n} images: {ln!r}")
        if not all(map(_digits, parts[1:])):
            raise ValueError(f"non-integer image in line {ln!r}")
        letters.append((parts[0], Transformation(tuple(map(int, parts[1:])))))
    return Dfa(n, tuple(letters))


def dfa_to_json_dict(d: Dfa) -> dict:
    return {
        "n": d.n,
        "letters": [{"name": a, "images": list(t.images)} for a, t in d.letters],
    }


def _json_int(x: object) -> int:
    """``x`` itself if it is a JSON integer; booleans and floats are refused."""
    if type(x) is not int:
        raise ValueError(f"malformed JSON: {x!r} is not an integer")
    return x


def dfa_from_json_dict(obj: dict) -> Dfa:
    try:
        n = _json_int(obj["n"])
        letters = []
        for entry in obj["letters"]:
            if not isinstance(name := entry["name"], str):
                raise ValueError(f"malformed automaton JSON: letter name {name!r} is not a string")
            letters.append((name, Transformation(tuple(_json_int(x) for x in entry["images"]))))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed automaton JSON: {exc}") from exc
    return Dfa(n, tuple(letters))


def loads_dfa(text: str) -> Dfa:
    """Parse either format, sniffing JSON by a leading '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON automaton: {exc}") from exc
        return dfa_from_json_dict(obj)
    return parse_dfa_text(text)


def load_dfa(path: str) -> Dfa:
    with open(path, "r", encoding="ascii") as fh:
        return loads_dfa(fh.read())


def dump_dfa(d: Dfa, path: str, fmt: str = "text") -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if fmt == "text":
            fh.write(format_dfa_text(d))
        elif fmt == "json":
            json.dump(dfa_to_json_dict(d), fh)
            fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
