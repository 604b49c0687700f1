"""Moment-matrix structure for the projector hierarchy.

Each input is represented by its +1-outcome projector, so the generating
letters are one symbol per (party, input). Words obey two rules only:
Alice letters commute with Bob letters, and every letter is idempotent.
A word is canonical when all Alice letters precede all Bob letters (their
internal order preserved) and no letter repeats adjacently.

Because every state and measurement here is real, the moment of a word
equals the moment of its reverse; moment identifiers therefore live on
words modulo block reversal, which is exactly what makes the moment matrix
a real symmetric SDP block.

Letters are (party, input) pairs, party 0 = Alice, 1 = Bob, inputs 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Letter = tuple[int, int]
Monomial = tuple[Letter, ...]

IDENTITY: Monomial = ()


def reduce(word: Sequence[Letter]) -> Monomial:
    """Canonical form of a word: Alice block first, adjacent repeats collapsed."""
    alice = [l for l in word if l[0] == 0]
    bob = [l for l in word if l[0] == 1]
    for part in (alice, bob):
        i = 1
        while i < len(part):
            if part[i] == part[i - 1]:
                del part[i]
            else:
                i += 1
    return tuple(alice) + tuple(bob)


def _reverse_blocks(word: Monomial) -> Monomial:
    """reduce of the reversed word: each party block reversed in place."""
    alice = tuple(l for l in word if l[0] == 0)
    bob = tuple(l for l in word if l[0] == 1)
    return alice[::-1] + bob[::-1]


def moment_word(word: Sequence[Letter]) -> Monomial:
    """Representative of the moment class {w, reverse(w)}."""
    w = reduce(word)
    return min(w, _reverse_blocks(w))


def check_level(level: int):
    """Reject a relaxation level the hierarchy does not build."""
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")


def monomials(level: int, mx: int, my: int) -> list[Monomial]:
    """All canonical words of length <= level, identity first.

    Deterministic order: by length, then lexicographically by
    (party, input) letters.
    """
    check_level(level)
    if mx < 1 or my < 1:
        raise ValueError("need at least one input per side")
    letters: list[Letter] = [(0, x) for x in range(1, mx + 1)]
    letters += [(1, y) for y in range(1, my + 1)]
    seen: set[Monomial] = {IDENTITY}
    frontier: list[Monomial] = [IDENTITY]
    for _ in range(level):
        nxt = []
        for w in frontier:
            for l in letters:
                r = reduce(w + (l,))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(w), w))


@dataclass(frozen=True)
class MomentStructure:
    """Index map from moment-matrix entries to moment identifiers.

    entry_to_moment[i, j] is the identifier of <basis[i]^T basis[j]> for
    the basis given to moment_structure; the map is symmetric.
    representative[m] is the first upper-triangle entry (row-major)
    carrying moment m, which is where linear functionals of moment m are
    anchored.
    """

    dim: int
    entry_to_moment: np.ndarray
    representative: tuple[tuple[int, int], ...]
    word_to_moment: dict = field(repr=False)

    def moment_of(self, word: Sequence[Letter]) -> int:
        """Identifier of a word's moment; KeyError if it never occurs."""
        return self.word_to_moment[moment_word(word)]


def moment_structure(basis: Sequence[Monomial]) -> MomentStructure:
    basis = tuple(basis)
    if not basis or basis[0] != IDENTITY:
        raise ValueError("basis must start with the identity word")
    if len(set(basis)) != len(basis):
        raise ValueError("basis words must be distinct")
    dim = len(basis)
    entry = np.full((dim, dim), -1, dtype=int)
    reps: list[tuple[int, int]] = []
    ids: dict[Monomial, int] = {}
    for i in range(dim):
        for j in range(i, dim):
            w = moment_word(basis[i][::-1] + basis[j])
            mid = ids.get(w)
            if mid is None:
                mid = len(reps)
                ids[w] = mid
                reps.append((i, j))
            entry[i, j] = mid
            entry[j, i] = mid
    entry.setflags(write=False)
    return MomentStructure(
        dim=dim,
        entry_to_moment=entry,
        representative=tuple(reps),
        word_to_moment=ids,
    )
