import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import guessprob, npa, qstate


def oracle_reduce(letters):
    # independent reducer: different parties commute (Alice letters first,
    # each party keeping its internal order), repeated projectors collapse
    letters = tuple(letters)

    def collapse(seq):
        out = []
        for letter in seq:
            if out and out[-1] == letter:
                continue
            out.append(letter)
        return out

    alice = collapse([l for l in letters if l[0] == 0])
    bob = collapse([l for l in letters if l[0] == 1])
    return tuple(alice + bob)


def oracle_moment_class(letters):
    # moments of a real symmetric matrix identify a word with its reversal
    w = oracle_reduce(letters)
    return min(w, oracle_reduce(reversed(w)))


letters_st = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=2)),
    max_size=6,
).map(tuple)


@given(word=letters_st)
def test_moment_word_matches_oracle(word):
    # moment_word canonicalizes the product modulo the reversal symmetry
    assert npa.moment_word(word) == oracle_moment_class(word)


def test_monomial_counts():
    for (level, mx, my), count in {
        (1, 2, 2): 5,
        (2, 2, 2): 13,
        (3, 2, 2): 25,
        (2, 2, 3): 20,
        (3, 2, 3): 52,
        (2, 4, 4): 49,
    }.items():
        assert len(npa.monomials(level, mx, my)) == count


def test_level_one_basis_contents():
    assert npa.monomials(1, 2, 2) == [
        (), ((0, 1),), ((0, 2),), ((1, 1),), ((1, 2),)
    ]


def test_monomials_reject_bad_level():
    with pytest.raises(ValueError):
        npa.monomials(0, 2, 2)


@pytest.mark.parametrize("level,mx,my", [(1, 2, 2), (2, 2, 2), (1, 2, 3)])
def test_moment_partition_matches_oracle(level, mx, my):
    basis = npa.monomials(level, mx, my)
    structure = npa.moment_structure(basis)
    n = structure.dim
    oracle = {}
    for i in range(n):
        for j in range(i, n):
            word = tuple(reversed(basis[i])) + basis[j]
            oracle[(i, j)] = oracle_moment_class(word)
    for (i1, j1), (i2, j2) in itertools.combinations(oracle, 2):
        same_oracle = oracle[(i1, j1)] == oracle[(i2, j2)]
        same_impl = (structure.entry_to_moment[i1, j1]
                     == structure.entry_to_moment[i2, j2])
        assert same_oracle == same_impl


def test_moment_count_level_one():
    structure = npa.moment_structure(npa.monomials(1, 2, 2))
    assert len(structure.representative) == 11


def test_positions_cover_upper_triangle():
    structure = npa.moment_structure(npa.monomials(2, 2, 2))
    seen = set()
    for mid in range(len(structure.representative)):
        # the upper-triangle entries (i <= j) carrying moment mid
        for pos in zip(*np.nonzero(np.triu(structure.entry_to_moment == mid))):
            assert pos not in seen
            seen.add(pos)
    n = structure.dim
    assert len(seen) == n * (n + 1) // 2


def _realization(rng, mx, my):
    # concrete qubit projectors and a random two-qubit state
    alice = [qstate.projector(rng.uniform(0, 2 * math.pi), 1) for _ in range(mx)]
    bob = [qstate.projector(rng.uniform(0, 2 * math.pi), 1) for _ in range(my)]
    m = rng.standard_normal((4, 4))
    rho = m @ m.T
    rho /= np.trace(rho)
    return alice, bob, rho


def _word_moment(word, alice, bob, rho):
    op = np.eye(4)
    for party, idx in word:
        if party == 0:
            op = op @ np.kron(alice[idx - 1], np.eye(2))
        else:
            op = op @ np.kron(np.eye(2), bob[idx - 1])
    return float(np.trace(rho @ op))


def test_collins_gisin_map_reproduces_probabilities():
    # evaluating the Collins-Gisin moments on an explicit realization and
    # mapping them back must reproduce the trace-formula probability for
    # every component
    rng = np.random.default_rng(7)
    words, _, from_cg = guessprob._collins_gisin(2, 2)
    alice, bob, rho = _realization(rng, 2, 2)
    moments = np.array([_word_moment(w, alice, bob, rho) for w in words])
    proj = {
        (0, idx + 1, 1): np.kron(p, np.eye(2)) for idx, p in enumerate(alice)
    }
    proj.update({
        (1, idx + 1, 1): np.kron(np.eye(2), p) for idx, p in enumerate(bob)
    })
    for (a, b, x, y) in qstate.components(2, 2):
        pa = proj[(0, x, 1)] if a == 1 else np.eye(4) - proj[(0, x, 1)]
        pb = proj[(1, y, 1)] if b == 1 else np.eye(4) - proj[(1, y, 1)]
        want = float(np.trace(rho @ pa @ pb))
        row = qstate.table(from_cg, 2, 2)[(a + 1) // 2, (b + 1) // 2, x - 1, y - 1]
        assert abs(row @ moments - want) < 1e-10


def test_moment_matrix_of_realization_is_psd():
    # the defining property of the relaxation: any quantum realization
    # produces a PSD moment matrix with the claimed sharing pattern
    rng = np.random.default_rng(3)
    basis = npa.monomials(2, 2, 2)
    structure = npa.moment_structure(basis)
    alice, bob, rho = _realization(rng, 2, 2)
    n = structure.dim
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            word = tuple(reversed(basis[i])) + basis[j]
            m[i, j] = _word_moment(word, alice, bob, rho)
    assert np.allclose(m, m.T, atol=1e-10)
    assert np.linalg.eigvalsh(m).min() > -1e-10
    for mid in range(len(structure.representative)):
        vals = m[np.triu(structure.entry_to_moment == mid)]
        assert max(vals) - min(vals) < 1e-10
