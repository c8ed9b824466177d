"""Core types for deterministic complete automata over a totally mapped alphabet.

Conventions used throughout the package:

* States are the integers ``0 .. n-1``.  Family generators that are usually
  written with 1-based state names attach display labels, but every stored
  image is 0-based.
* A letter is a total transformation of the state set, stored as a tuple
  ``images`` with ``images[q]`` the successor of state ``q``.
* Words act left to right: applying ``uv`` means applying ``u`` first.
* Subsets of states are ``StateSet`` values, bit masks held in a Python
  int, so any ``n`` is allowed.  :func:`apply_word` is the one rule for
  moving a state set under a word.  It reads the word one run a^k of a
  repeated letter at a time: a permutation letter moves each state k places
  along its cycle at once, and any other letter is applied until the set
  maps onto itself or the run ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"image {x!r} out of range for n={n}")
        object.__setattr__(self, "images", tuple(self.images))

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, state: int) -> int:
        return self.images[state]

    def rank(self) -> int:
        """Size of the image set."""
        return len(set(self.images))

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
        seen = set()
        for x in self.images:
            if x in seen:
                return x
            seen.add(x)
        raise AssertionError("unreachable: rank n-1 map has a repeated image")

    def then(self, other: "Transformation") -> "Transformation":
        """Composition acting left to right: ``self`` first, then ``other``."""
        if other.n != self.n:
            raise ValueError("cannot compose transformations of different sizes")
        return Transformation(tuple(other.images[x] for x in self.images))

    def preimage_of(self, states: Iterable[int]) -> frozenset[int]:
        targets = set(states)
        return frozenset(q for q in range(self.n) if self.images[q] in targets)


def _check_letter_name(name: str) -> None:
    if not name or not name.isascii() or any(c.isspace() for c in name):
        raise ValueError(f"letter name {name!r} must be non-empty ASCII without whitespace")


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton: ``n`` states and named letters.

    ``state_labels`` is optional display metadata (family generators attach
    the customary 1-based or 0-based names); it does not affect any
    algorithm and is not part of the file formats.
    """

    n: int
    letters: tuple[tuple[str, Transformation], ...]
    state_labels: tuple[str, ...] | None = field(default=None, compare=False)

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
        if self.state_labels is not None:
            if len(self.state_labels) != self.n:
                raise ValueError("state_labels must have one entry per state")
            object.__setattr__(self, "state_labels", tuple(self.state_labels))

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

    def relabeled(self, labels: Sequence[str] | None) -> "Dfa":
        return Dfa(self.n, self.letters, tuple(labels) if labels is not None else None)


@dataclass(frozen=True)
class Word:
    """A word over an automaton's alphabet, stored as letter indices."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))

    @classmethod
    def empty(cls) -> "Word":
        return cls(())

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def names(self, d: Dfa) -> tuple[str, ...]:
        return tuple(d.letters[i][0] for i in self.letters)


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

    @classmethod
    def singleton(cls, n: int, state: int) -> "StateSet":
        return cls.of(n, (state,))

    def members(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.n and (self.mask >> state) & 1 == 1

    def __len__(self) -> int:
        return self.cardinality()


def _cycle_positions(t: tuple[int, ...]) -> list[tuple[list[int], int]] | None:
    """``where[q] = (cycle, j)`` with ``cycle[j] == q`` for a permutation ``t``;
    ``None`` if ``t`` is not a permutation."""
    if len(set(t)) != len(t):
        return None
    where: list = [None] * len(t)
    for q in range(len(t)):
        if where[q] is None:
            cycle = [q]
            while (x := t[cycle[-1]]) != q:
                cycle.append(x)
            for j, x in enumerate(cycle):
                where[x] = (cycle, j)
    return where


def apply_word(s: StateSet, d: Dfa, w: Word) -> StateSet:
    """Image of a state set under a word, applied left to right.

    The word is read one run a^k of a repeated letter at a time.  Under a
    permutation letter each state moves k places along its cycle in one
    step, from cycle positions built once per letter and call; any other
    letter is applied again and again, stopping early once the set maps
    onto itself, after which the rest of the run changes nothing.
    """
    if d.n != s.n:
        raise ValueError("state set and automaton have different state counts")
    m = d.m
    images = [t.images for t in d.transformations()]
    positions: dict[int, list | None] = {}
    current = set(s.members())
    for i, run in groupby(w.letters):
        if not 0 <= i < m:
            raise ValueError(f"letter index {i} out of range")
        k = len([*run])
        t = images[i]
        if k > 1:
            if i not in positions:
                positions[i] = _cycle_positions(t)
            if (where := positions[i]) is not None:
                current = {c[(j + k) % len(c)] for c, j in map(where.__getitem__, current)}
                continue
        # image is t(current); k counts the applications left, this one included
        image = {t[q] for q in current}
        while k > 1 and image != current:
            current, image, k = image, {t[q] for q in image}, k - 1
        current = image
    return StateSet.of(s.n, current)


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


def parse_dfa_text(text: str) -> Dfa:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty automaton description")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError("first line must be 'n m' with integers") from exc
    if len(lines) != 1 + m:
        raise ValueError(f"expected {m} letter lines, found {len(lines) - 1}")
    letters = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 1 + n:
            raise ValueError(f"letter line needs a name and {n} images: {ln!r}")
        try:
            images = tuple(int(x) for x in parts[1:])
        except ValueError as exc:
            raise ValueError(f"non-integer image in line {ln!r}") from exc
        letters.append((parts[0], Transformation(images)))
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
