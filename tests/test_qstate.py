import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import qstate
from bellrand.guessprob import ibeta_coefficients
from bellrand.qstate import (
    Behavior,
    MeasurementSet,
    behavior,
    behavior_from_csv,
    behavior_to_csv,
    canonical_settings,
    chsh_optimal_settings,
    chsh_value,
    components,
    make_state,
    projector,
)

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
visibilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
thetas = st.floats(min_value=0.0, max_value=math.pi / 4, allow_nan=False)


def test_projector_basics():
    for ang in (0.0, 0.3, math.pi / 2, 2.5):
        for outcome in (1, -1):
            p = projector(ang, outcome)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert abs(np.trace(p) - 1.0) < 1e-12
        total = projector(ang, 1) + projector(ang, -1)
        assert np.allclose(total, np.eye(2), atol=1e-12)


def test_projector_axis_values():
    assert np.allclose(projector(0.0, 1), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(projector(math.pi / 2, 1), np.full((2, 2), 0.5), atol=1e-12)


def test_projector_rejects_bad_outcome():
    with pytest.raises(ValueError):
        projector(0.0, 0)


def test_make_state_werner_spectrum():
    # mixing half the singlet-free family member with I/4 gives one
    # eigenvalue at 5/8 and three at 1/8
    rho = make_state(0.5, math.pi / 4)
    evals = np.sort(np.linalg.eigvalsh(rho.entries))
    assert np.allclose(evals, [0.125, 0.125, 0.125, 0.625], atol=1e-12)


@given(v=visibilities, theta=thetas)
def test_make_state_is_a_state(v, theta):
    rho = make_state(v, theta)
    m = rho.entries
    assert abs(np.trace(m) - 1.0) < 1e-10
    assert np.allclose(m, m.T, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() > -1e-12


def test_make_state_validates_range():
    with pytest.raises(ValueError):
        make_state(1.5, 0.1)
    with pytest.raises(ValueError):
        make_state(-0.1, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    m = np.eye(4) / 4.0
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="density matrix entries must be finite"):
        qstate.DensityMatrix(m)
    with pytest.raises(ValueError, match="density matrix entries must be finite"):
        qstate.DensityMatrix(np.full((4, 4), bad))


def test_kron2_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(7)
    for a, b in rng.standard_normal((2000, 2, 2, 2)):
        assert qstate.kron2(a, b).tobytes() == np.kron(a, b).tobytes()


def _oracle_prob(state, alpha, beta, a, b):
    # direct trace formula, independent of the behavior assembly
    pa = 0.5 * (np.eye(2) + a * (math.cos(alpha) * np.diag([1.0, -1.0])
                                 + math.sin(alpha) * np.array([[0.0, 1.0], [1.0, 0.0]])))
    pb = 0.5 * (np.eye(2) + b * (math.cos(beta) * np.diag([1.0, -1.0])
                                 + math.sin(beta) * np.array([[0.0, 1.0], [1.0, 0.0]])))
    return float(np.trace(state.entries @ np.kron(pa, pb)))


@settings(max_examples=40)
@given(v=visibilities, theta=thetas, a1=angles, b1=angles, b2=angles)
def test_behavior_matches_trace_oracle(v, theta, a1, b1, b2):
    state = make_state(v, theta)
    meas = MeasurementSet((a1, 2.1), (b1, b2))
    beh = behavior(state, meas)
    for a, b, x, y in components(2, 2):
        want = _oracle_prob(state, meas.alice_angles[x - 1],
                            meas.bob_angles[y - 1], a, b)
        got = beh.table[(a + 1) // 2, (b + 1) // 2, x - 1, y - 1]
        assert abs(got - want) < 1e-10


@given(v=visibilities, theta=thetas, a1=angles, a2=angles, b1=angles, b2=angles)
def test_behavior_is_normalized_and_nonsignaling(v, theta, a1, a2, b1, b2):
    beh = behavior(make_state(v, theta), MeasurementSet((a1, a2), (b1, b2)))
    for x in (1, 2):
        for y in (1, 2):
            total = beh.table[:, :, x - 1, y - 1].sum()
            assert abs(total - 1.0) < 1e-9
    assert beh.no_signaling_defect() < 1e-9


def _random_state(rng, pure):
    if pure:
        vec = rng.standard_normal(4)
        return qstate.DensityMatrix(np.outer(vec, vec) / (vec @ vec))
    a = rng.standard_normal((4, 4))
    m = a @ a.T
    return qstate.DensityMatrix(m / np.trace(m))


def test_behavior_is_the_per_component_trace_bit_for_bit():
    # the stacked Born rule against one trace per component, read through
    # the table view, on seeded real states and every scenario up to 4x4
    rng = np.random.default_rng(11)
    for k in range(160):
        mx, my = rng.integers(1, 5, 2)
        state = _random_state(rng, pure=k % 2 == 0)
        meas = MeasurementSet(tuple(rng.uniform(0.0, 2.0 * math.pi, mx)),
                              tuple(rng.uniform(0.0, 2.0 * math.pi, my)))
        beh = behavior(state, meas)
        for a, b, x, y in components(mx, my):
            op = np.kron(projector(meas.alice_angles[x - 1], a),
                         projector(meas.bob_angles[y - 1], b))
            want = np.trace(state.entries @ op)
            got = beh.table[(a + 1) // 2, (b + 1) // 2, x - 1, y - 1]
            assert got.tobytes() == want.tobytes()


def test_table_is_a_read_only_view():
    beh = behavior(make_state(0.9, 0.3), canonical_settings())
    assert beh.table.shape == (2, 2, 2, 3)
    assert np.shares_memory(beh.table, beh.probs)
    with pytest.raises(ValueError):
        beh.table[0, 0, 0, 0] = 0.5


def test_chsh_tsirelson_at_optimal_settings():
    beh = behavior(make_state(1.0, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    assert abs(chsh_value(beh) - 2.0 * math.sqrt(2.0)) < 1e-12


@given(v=visibilities, theta=thetas)
def test_chsh_optimal_settings_value_formula(v, theta):
    beh = behavior(make_state(v, theta), chsh_optimal_settings(theta))
    s = math.sin(2.0 * theta)
    assert abs(chsh_value(beh) - 2.0 * v * math.sqrt(1.0 + s * s)) < 1e-9


def test_ibeta_reduces_to_chsh_at_zero_beta():
    beh = behavior(make_state(0.8, math.pi / 8), chsh_optimal_settings(math.pi / 8))
    assert abs(ibeta_coefficients(0.0) @ beh.probs - chsh_value(beh)) < 1e-12


def test_canonical_settings_shape():
    meas = canonical_settings()
    assert len(meas.alice_angles) == 2
    assert len(meas.bob_angles) == 3


def test_csv_round_trip_is_exact():
    beh = behavior(make_state(0.93, 0.41), canonical_settings())
    again = behavior_from_csv(behavior_to_csv(beh))
    assert again.mx == beh.mx and again.my == beh.my
    assert np.array_equal(again.probs, beh.probs)


def test_csv_missing_row_is_named():
    text = behavior_to_csv(behavior(make_state(1.0, 0.3), canonical_settings()))
    lines = [ln for ln in text.splitlines() if not ln.startswith("-1,1,2,3")]
    with pytest.raises(ValueError, match=r"\(-1,1,2,3\)"):
        behavior_from_csv("\n".join(lines))


def test_csv_duplicate_row_rejected():
    text = behavior_to_csv(behavior(make_state(1.0, 0.3), canonical_settings()))
    extra = text.splitlines()[1]
    with pytest.raises(ValueError, match="duplicate"):
        behavior_from_csv(text + extra + "\n")


@pytest.mark.parametrize("text", ["", "a,b,x,y,p\n", "a,b,x,y,p\n\n"])
def test_csv_without_rows_rejected(text):
    with pytest.raises(ValueError, match="behavior CSV has no rows"):
        behavior_from_csv(text)


def _relabel_first_row(text, column, label):
    lines = text.splitlines()
    parts = lines[1].split(",")
    parts[column] = label
    lines[1] = ",".join(parts)
    return "\n".join(lines) + "\n"


def test_csv_integral_float_labels_accepted():
    beh = behavior(make_state(0.93, 0.41), canonical_settings())
    text = _relabel_first_row(behavior_to_csv(beh), 2, "1.0")
    assert np.array_equal(behavior_from_csv(text).probs, beh.probs)


@pytest.mark.parametrize("label", ["1.5", "inf", "-inf", "nan"])
def test_csv_non_integral_label_rejected(label):
    # the first data row has x = 1: a truncating parse would read 1.5 as 1
    text = behavior_to_csv(behavior(make_state(0.93, 0.41), canonical_settings()))
    assert text.splitlines()[1].split(",")[2] == "1"
    with pytest.raises(ValueError, match="bad behavior row"):
        behavior_from_csv(_relabel_first_row(text, 2, label))


def test_csv_unnormalized_rejected():
    beh = behavior(make_state(1.0, 0.3), canonical_settings())
    probs = beh.probs.copy()
    probs[0] += 1e-3
    bad = Behavior(mx=2, my=3, probs=probs)
    with pytest.raises(ValueError):
        bad.validate()


def test_behavior_rejects_wrong_length():
    with pytest.raises(ValueError):
        Behavior(mx=2, my=2, probs=np.zeros(7))


@pytest.mark.parametrize("mx, my, size", [(0, 3, 0), (2, 0, 0), (-1, -1, 4)])
def test_behavior_rejects_a_side_without_inputs(mx, my, size):
    # (-1, -1) with four entries passes the length test
    with pytest.raises(ValueError, match="each side needs an input"):
        Behavior(mx=mx, my=my, probs=np.zeros(size))


@pytest.mark.parametrize("x, y", [(-1, -1), (0, 1), (1, 0)])
def test_csv_input_label_below_one_is_named(x, y):
    # every input label at -1 would make mx = my = -1 and leave the
    # behavior's entries unset; a row at input 0 among valid ones is named too
    if (x, y) == (-1, -1):
        text = "".join(f"{a},{b},-1,-1,0.25\n" for a in (-1, 1) for b in (-1, 1))
        row = "-1,-1,-1,-1,0.25"
    else:
        text = behavior_to_csv(behavior(make_state(1.0, 0.3), canonical_settings()))
        row = f"1,1,{x},{y},0"
        text += row + "\n"
    with pytest.raises(ValueError, match=re.escape(f"at least 1 in row '{row}'")):
        behavior_from_csv(text)
