"""Output checks for the bellrand benchmark, computed apart from bellrand.

Nothing here imports bellrand. The Born rule, the behavior layout, the
pure-state closed form and the local-polytope test are written out from
their definitions, so a fault in the package cannot hide in its own check.
Every check returns a list of messages, each starting with the name of the
check that fired (``name: detail``); an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

TSIRELSON_HMIN_L2 = 1.22845  # level-2 CHSH-only bound at 2*sqrt(2), literature
OUTCOMES = (-1, 1)  # stored with -1 first

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def component_index(a, b, x, y, mx, my):
    """Flat index of p(a,b|x,y): outcome pair slowest, -1 before +1."""
    return (((a + 1) // 2 * 2 + (b + 1) // 2) * mx + (x - 1)) * my + (y - 1)


def family_state(v, theta):
    """v |psi><psi| + (1-v) I/4 with |psi> = cos t |00> + sin t |11>."""
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    return v * np.outer(psi, psi) + (1.0 - v) * np.eye(4) / 4.0


def projector(bloch, outcome):
    """Qubit projector (I + outcome * n.sigma) / 2 for a unit Bloch vector n."""
    nx, ny, nz = bloch
    return (_I2 + outcome * (nx * _SX + ny * _SY + nz * _SZ)) / 2.0


def planar(angle):
    """Bloch vector (sin phi, 0, cos phi) of a planar measurement."""
    return (math.sin(angle), 0.0, math.cos(angle))


def born_behavior(rho, alice, bob):
    """p(a,b|x,y) = tr[rho (P_x^a (x) Q_y^b)] for Bloch-vector settings."""
    mx, my = len(alice), len(bob)
    p = np.empty(4 * mx * my)
    for a in OUTCOMES:
        for b in OUTCOMES:
            for x, na in enumerate(alice, start=1):
                for y, nb in enumerate(bob, start=1):
                    op = np.kron(projector(na, a), projector(nb, b))
                    p[component_index(a, b, x, y, mx, my)] = float(
                        np.real(np.trace(rho @ op))
                    )
    return p


def random_quantum_behaviors(rng, mx, my, count):
    """Born-rule behaviors of random two-qubit states (every third pure,
    complex entries) under random projective measurements in all three
    Bloch directions. Every one is a quantum behavior, so every valid
    certificate must dominate it."""
    out = []
    for k in range(count):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if k % 3 == 0:
            vec = g[:, 0]
            rho = np.outer(vec, vec.conj())
        else:
            rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))

        def unit():
            n = rng.standard_normal(3)
            return tuple(n / np.linalg.norm(n))

        out.append(born_behavior(
            rho, [unit() for _ in range(mx)], [unit() for _ in range(my)]
        ))
    return out


def pure_state_g(theta):
    """Closed-form tomographic guessing probability of the pure state:
    G = (1 + sin 2t) cos^2(alpha) / 4, with
    sin alpha = (-cos 2t + sqrt(cos^2 2t + 4 sin 2t (1 + sin 2t)))
                / (2 (1 + sin 2t))."""
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    sin_alpha = (-c + math.sqrt(c * c + 4.0 * s * (1.0 + s))) / (2.0 * (1.0 + s))
    return 0.25 * (1.0 + s) * (1.0 - sin_alpha * sin_alpha)


def pure_state_hmin(theta):
    return -math.log2(pure_state_g(theta))


def chsh_family(v, theta):
    """Largest CHSH value of the family state: 2 v sqrt(1 + sin^2 2t)."""
    return 2.0 * v * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)


def is_local_2x2(p, tol=1e-9):
    """Fine's theorem: a no-signaling 2x2 behavior is local exactly when
    all eight CHSH inequalities hold."""
    e = {}
    for x in (1, 2):
        for y in (1, 2):
            e[x, y] = sum(
                a * b * p[component_index(a, b, x, y, 2, 2)]
                for a in OUTCOMES for b in OUTCOMES
            )
    total = sum(e.values())
    return all(abs(total - 2.0 * e[k]) <= 2.0 + tol for k in e)


# --- certify: one GuessReport from guessprob.guessing_probability ---------

def check_bound(point, report, probs, samples):
    """Checks on one full-statistics bound.

    point: dict with mx, my, xstar, ystar, theta and optional flags
      'local' (Fine-local behavior), 'pure' (pure family state at
      generation pair (1,1)), 'two_bit' (canonical two-bit instance).
    probs: the behavior the bound was computed for.
    samples: Born-rule behaviors to test the certificate on.
    """
    bad = []
    if report.status != "optimal":
        bad.append(f"status: {report.status}")
    h = report.hmin
    if not (math.isfinite(h) and -1e-9 <= h <= 2.0 + 1e-9):
        bad.append(f"range: hmin {h} outside [0, 2]")
    expr = report.bell_expression
    if expr is None:
        return bad + ["cert-value: no Bell expression"]
    coeffs = np.asarray(expr.coeffs, dtype=float)
    value = float(coeffs @ probs) + expr.offset
    if abs(value - report.guessing_probability) > 1e-6:
        bad.append(
            f"cert-value: {value} != G {report.guessing_probability}"
        )
    mx, my, xs, ys = point["mx"], point["my"], point["xstar"], point["ystar"]
    for k, q in enumerate(samples):
        val = float(coeffs @ q) + expr.offset
        guess = max(q[component_index(a, b, xs, ys, mx, my)]
                    for a in OUTCOMES for b in OUTCOMES)
        if val < guess - 1e-6:
            bad.append(f"cert-valid: sample {k} gives {val} < {guess}")
            break
    if point.get("local") and h > 1e-6:
        bad.append(f"local: hmin {h}")
    if point.get("pure") and h > pure_state_hmin(point["theta"]) + 1e-6:
        bad.append(f"closed-form: hmin {h} above {pure_state_hmin(point['theta'])}")
    if point.get("two_bit") and h < 1.98:
        bad.append(f"two-bit: hmin {h}")
    return bad


def check_level_order(h_high, h_low):
    """A higher relaxation level is tighter, so it never certifies less."""
    if h_high < h_low - 1e-6:
        return [f"level-order: level 3 {h_high} below level 2 {h_low}"]
    return []


# --- sweep: one CSV row of `bellrand sweep` --------------------------------

SWEEP_HEADER = "v,theta,mx,my,level,hmin,chsh,hmin_chsh,starts,converged,status"


def _echo(row, v, theta):
    if abs(row["v"] - v) > 1e-11 or abs(row["theta"] - theta) > 1e-11:
        return [f"echo: row ({row['v']}, {row['theta']}) for ({v}, {theta})"]
    return []


def check_sweep_row(row, v, theta, tsirelson=False):
    """row: dict of floats v, theta, hmin, chsh, hmin_chsh and str status,
    computed for the state (v, theta)."""
    bad = _echo(row, v, theta)
    if row["status"] != "optimal":
        bad.append(f"status: {row['status']}")
    for key in ("hmin", "hmin_chsh"):
        h = row[key]
        if not (math.isfinite(h) and -1e-9 <= h <= 2.0 + 1e-9):
            bad.append(f"range: {key} {h} outside [0, 2]")
    expected = chsh_family(v, theta)
    if abs(row["chsh"] - expected) > 1e-8:
        bad.append(f"chsh: {row['chsh']} != {expected}")
    if expected <= 2.0:
        for key in ("hmin", "hmin_chsh"):
            if row[key] > 1e-6:
                bad.append(f"local: {key} {row[key]}")
    if tsirelson and abs(row["hmin_chsh"] - TSIRELSON_HMIN_L2) > 2e-3:
        bad.append(f"tsirelson: hmin_chsh {row['hmin_chsh']}")
    if v == 1.0 and row["hmin"] > pure_state_hmin(theta) + 1e-6:
        bad.append(f"closed-form: hmin {row['hmin']} above {pure_state_hmin(theta)}")
    if row["hmin"] < row["hmin_chsh"] - 1e-6:
        bad.append(
            f"below-chsh-only: hmin {row['hmin']} below {row['hmin_chsh']}"
        )
    return bad


# --- tomography: one CSV row of `bellrand tomography` ----------------------

TOMOGRAPHY_HEADER = "v,theta,level,alpha,beta,hmin,status"


def check_tomography_row(row, v, theta, endpoint=False):
    """row: dict of floats v, theta, hmin and str status, computed for the
    state (v, theta); endpoint marks theta = 0 or pi/4."""
    bad = _echo(row, v, theta)
    if row["status"] != "optimal":
        bad.append(f"status: {row['status']}")
    h = row["hmin"]
    if not (math.isfinite(h) and -1e-9 <= h <= 2.0 + 1e-9):
        bad.append(f"range: hmin {h} outside [0, 2]")
    elif v == 1.0:
        g = 2.0 ** -h
        if abs(g - pure_state_g(theta)) > 1e-4:
            bad.append(f"closed-form: G {g} != {pure_state_g(theta)}")
        if endpoint and abs(h - 2.0) > 1e-4:
            bad.append(f"endpoint: hmin {h} != 2")
    return bad


def check_non_monotone(h_mid, h_ends):
    """Noisy states: the pi/8 row lies below both endpoint rows."""
    if not all(h_mid < h for h in h_ends):
        return [f"non-monotone: pi/8 row {h_mid} not below {h_ends}"]
    return []
