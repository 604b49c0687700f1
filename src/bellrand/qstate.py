"""Two-qubit states, planar projective measurements, and behaviors.

All matrices in this package are real. States come from the one-parameter
family of partially entangled pure states mixed with white noise, and every
measurement is a rank-one projective qubit measurement whose Bloch vector
lies in the x-z plane, so nothing complex ever appears. Inputs that carry a
nonzero imaginary part are rejected rather than truncated.

Conventions:
  * outcomes are labelled -1 and +1, stored with -1 first;
  * inputs (measurement settings) are 1-based;
  * a planar angle phi maps to the +1 projector onto the Bloch vector
    (sin phi, 0, cos phi); the -1 projector is its antipode;
  * a behavior p(a,b|x,y), and every vector of Bell coefficients, is a
    flat vector over (a, b, x, y), a-major. Only this module decodes it:
    table(v, mx, my) is its (2, 2, mx, my) view, indexed
    [ia, ib, x - 1, y - 1] with index 0 for outcome -1 (Behavior.table and
    BellExpression.table), and other modules index that view.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
# a behavior this far from no-signaling has no quantum model: infeasible
SIGNALING_INPUT_TOL = 1e-7
NO_SIGNALING_TOL = 1e-9
ENTRY_TOL = 1e-10

OUTCOMES = (-1, 1)


def _as_real(m, what: str) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > 0:
            raise ValueError(f"{what} must be real, got complex entries")
        m = m.real
    return np.array(m, dtype=float)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 real symmetric density matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_real(self.entries, "density matrix")
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        # NaN fails every comparison below
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > HERMITIAN_TOL:
            raise ValueError("density matrix must be symmetric")
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(m)!r} != 1")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", _frozen(m))


def make_state(v: float, theta: float) -> DensityMatrix:
    """Noisy partially entangled state v|psi><psi| + (1-v) I/4.

    |psi> = cos(theta)|00> + sin(theta)|11>, v in [0, 1],
    theta in [0, pi/4].
    """
    v = float(v)
    theta = float(theta)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility v={v} outside [0, 1]")
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise ValueError(f"theta={theta} outside [0, pi/4]")
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    rho = v * np.outer(psi, psi) + (1.0 - v) * np.eye(4) / 4.0
    return DensityMatrix(rho)


def projector(angle: float, outcome: int) -> np.ndarray:
    """Rank-one projector for a planar measurement direction."""
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be -1 or +1, got {outcome}")
    s, c = math.sin(angle), math.cos(angle)
    if outcome < 0:
        s, c = -s, -c
    # (I + sin(phi) sx + cos(phi) sz) / 2, all real
    return np.array([[1.0 + c, s], [s, 1.0 - c]]) / 2.0


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 2x2 matrices, broadcast over leading axes: entry
    (2i+k, 2j+l) is the single product a[i, j] * b[k, l], as in np.kron."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


@dataclass(frozen=True)
class MeasurementSet:
    """Planar measurement angles for both sides, one angle per input."""

    alice_angles: tuple[float, ...]
    bob_angles: tuple[float, ...]

    def __post_init__(self):
        alice = tuple(float(a) for a in self.alice_angles)
        bob = tuple(float(b) for b in self.bob_angles)
        if not alice or not bob:
            raise ValueError("each side needs at least one input")
        if not all(map(math.isfinite, alice + bob)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "alice_angles", alice)
        object.__setattr__(self, "bob_angles", bob)

    @property
    def mx(self) -> int:
        return len(self.alice_angles)

    @property
    def my(self) -> int:
        return len(self.bob_angles)


def canonical_settings() -> MeasurementSet:
    """Settings that certify two bits from the maximally entangled state.

    Alice measures along z and x. Bob measures the two diagonal directions
    (the CHSH-optimal pair up to outcome relabeling) plus z; the extra
    z measurement is the one whose outcomes are used for generation.
    """
    return MeasurementSet(
        (0.0, math.pi / 2),
        (math.pi / 4, 3 * math.pi / 4, 0.0),
    )


def table(flat: np.ndarray, mx: int, my: int) -> np.ndarray:
    """The (2, 2, mx, my) view of a flat (a, b, x, y) vector, followed by
    any further axes of ``flat``. Never a copy: read-only where ``flat`` is,
    as in a Behavior or a BellExpression, and writing into it elsewhere."""
    return flat.reshape((2, 2, mx, my) + flat.shape[1:])


def components(mx: int, my: int):
    """All (a, b, x, y) labels in flat storage order."""
    return itertools.product(OUTCOMES, OUTCOMES, range(1, mx + 1), range(1, my + 1))


@dataclass(frozen=True)
class Behavior:
    """Conditional outcome distributions p(a,b|x,y) as one flat vector."""

    mx: int
    my: int
    probs: np.ndarray

    def __post_init__(self):
        if self.mx < 1 or self.my < 1:
            raise ValueError(f"each side needs an input, got {self.mx}x{self.my}")
        p = _as_real(self.probs, "behavior")
        if p.shape != (4 * self.mx * self.my,):
            raise ValueError(
                f"behavior needs {4 * self.mx * self.my} entries, got {p.shape}"
            )
        # NaN fails every comparison of the tests made on a behavior
        finite = np.isfinite(p)
        if not finite.all():
            a, b, x, y = list(components(self.mx, self.my))[int(np.argmin(finite))]
            raise ValueError(
                f"behavior entry for (a,b,x,y)=({a},{b},{x},{y}) is not finite"
            )
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def table(self) -> np.ndarray:
        """p(a,b|x,y) at [ia, ib, x - 1, y - 1], read-only (see ``table``)."""
        return table(self.probs, self.mx, self.my)

    def validate(self, entry_tol: float = ENTRY_TOL,
                 norm_tol: float = NORMALIZATION_TOL) -> None:
        p = self.probs
        if p.min() < -entry_tol or p.max() > 1.0 + entry_tol:
            raise ValueError("behavior entries outside [0, 1]")
        t = self.table
        sums = t[0, 0] + t[0, 1] + t[1, 0] + t[1, 1]
        bad = np.argwhere(np.abs(sums - 1.0) > norm_tol)
        if len(bad):
            x, y = bad[0]
            raise ValueError(
                f"probabilities for x={x + 1}, y={y + 1} sum to {float(sums[x, y])!r}"
            )

    def no_signaling_defect(self) -> float:
        """Largest marginal discrepancy across the other side's inputs."""
        p = self.table
        # <A_x> and <B_y> as evaluated in each (x, y) block
        alice = -p[0, 0] - p[0, 1] + p[1, 0] + p[1, 1]
        bob = -p[0, 0] + p[0, 1] - p[1, 0] + p[1, 1]
        return float(max(np.ptp(alice, axis=1).max(), np.ptp(bob, axis=0).max()))


def behavior(state: DensityMatrix, meas: MeasurementSet) -> Behavior:
    """Measured behavior p(a,b|x,y) = tr[rho (P_x^a x Q_y^b)], in one stack."""
    pa = np.array([[projector(t, a) for t in meas.alice_angles] for a in OUTCOMES])
    pb = np.array([[projector(t, b) for t in meas.bob_angles] for b in OUTCOMES])
    # P_x^a x Q_y^b at [ia, ib, x - 1, y - 1]
    ops = kron2(pa[:, None, :, None], pb[None, :, None, :])
    probs = np.trace(state.entries @ ops, axis1=-2, axis2=-1)
    out = Behavior(meas.mx, meas.my, probs.ravel())
    out.validate()
    defect = out.no_signaling_defect()
    if defect > NO_SIGNALING_TOL:
        raise ValueError(f"no-signaling defect {defect} from a trace computation")
    return out


def chsh_value(b: Behavior) -> float:
    """<A1B1> + <A1B2> + <A2B1> - <A2B2>; needs at least 2 inputs per side."""
    if b.mx < 2 or b.my < 2:
        raise ValueError("CHSH needs two inputs on each side")
    p = b.table
    e = p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def chsh_optimal_settings(theta: float) -> MeasurementSet:
    """Planar settings maximizing CHSH for any state in the family.

    Alice along z and x; Bob at +-chi with tan(chi) = sin(2 theta). The
    achieved value on make_state(v, theta) is 2 v sqrt(1 + sin^2(2 theta)).
    """
    chi = math.atan(math.sin(2.0 * theta))
    return MeasurementSet((0.0, math.pi / 2), (chi, -chi))


def behavior_to_csv(b: Behavior) -> str:
    """CSV rows a,b,x,y,p with enough digits for exact round trips."""
    buf = io.StringIO()
    buf.write("a,b,x,y,p\n")
    for (a, bb, x, y), p in zip(components(b.mx, b.my), b.probs):
        buf.write(f"{a},{bb},{x},{y},{p:.17g}\n")
    return buf.getvalue()


def behavior_from_csv(text: str) -> Behavior:
    """Parse a behavior CSV; every (a,b,x,y) row must be present exactly once.
    Entries may leave [0, 1] by 1e-9 and each (x, y) sum may miss one by
    1e-6, the rounding a file's values carry.

    The a, b, x, y labels must be finite integral numbers (``1`` or ``1.0``),
    the inputs x and y at least 1. Raises ValueError naming the first
    malformed row, or the first missing or duplicated component, and on a
    file with no rows, header or not.
    """
    rows: dict[tuple[int, int, int, int], float] = {}
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].lower().replace(" ", "").startswith("a,b,x,y"):
        lines = lines[1:]
    for ln in lines:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 5:
            raise ValueError(f"bad behavior row {ln!r}")
        try:
            labels = [float(p) for p in parts[:4]]
            val = float(parts[4])
        except ValueError as exc:
            raise ValueError(f"bad behavior row {ln!r}") from exc
        # is_integer() is False for 1.5, inf and nan alike
        if not all(t.is_integer() for t in labels):
            raise ValueError(f"bad behavior row {ln!r}")
        a, b, x, y = map(int, labels)
        if a not in OUTCOMES or b not in OUTCOMES:
            raise ValueError(f"outcome labels must be -1/+1 in row {ln!r}")
        if x < 1 or y < 1:
            raise ValueError(f"input labels must be at least 1 in row {ln!r}")
        key = (a, b, x, y)
        if key in rows:
            raise ValueError(f"duplicate behavior row for (a,b,x,y)={key}")
        rows[key] = val
    if not rows:
        raise ValueError("behavior CSV has no rows")
    mx = max(k[2] for k in rows)
    my = max(k[3] for k in rows)
    # each row's labels are among these, once: with none missing, none is left
    for a, b, x, y in components(mx, my):
        if (a, b, x, y) not in rows:
            raise ValueError(f"missing behavior row for (a,b,x,y)=({a},{b},{x},{y})")
    out = Behavior(mx, my, [rows[key] for key in components(mx, my)])
    out.validate(entry_tol=1e-9, norm_tol=1e-6)
    return out
