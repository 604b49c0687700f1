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
  * behaviors are flat vectors indexed by (a, b, x, y), a-major.
"""

from __future__ import annotations

import io
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
    """A 4x4 real symmetric density matrix.

    ``v`` and ``theta`` record the family parameters when the state was
    built by :func:`make_state`; they stay None for externally supplied
    matrices.
    """

    entries: np.ndarray
    v: float | None = None
    theta: float | None = None

    def __post_init__(self):
        m = _as_real(self.entries, "density matrix")
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
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
    return DensityMatrix(rho, v=v, theta=theta)


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
    """Kronecker product of two 2x2 matrices: entry (2i+k, 2j+l) is the
    single product a[i, j] * b[k, l], as in np.kron, without its overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


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

    def projector(self, party: int, x: int, outcome: int) -> np.ndarray:
        """Projector of input ``x`` (1-based) on party 0 (Alice) or 1 (Bob)."""
        angles = self.alice_angles if party == 0 else self.bob_angles
        if not 1 <= x <= len(angles):
            raise ValueError(f"input {x} out of range for party {party}")
        return projector(angles[x - 1], outcome)


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


def component_index(a: int, b: int, x: int, y: int, mx: int, my: int) -> int:
    """Flat storage index of p(a,b|x,y); -1 sorts before +1."""
    ia = (a + 1) // 2
    ib = (b + 1) // 2
    return ((ia * 2 + ib) * mx + (x - 1)) * my + (y - 1)


def components(mx: int, my: int):
    """All (a, b, x, y) labels in flat storage order."""
    for a in OUTCOMES:
        for b in OUTCOMES:
            for x in range(1, mx + 1):
                for y in range(1, my + 1):
                    yield a, b, x, y


@dataclass(frozen=True)
class Behavior:
    """Conditional outcome distributions p(a,b|x,y) as one flat vector."""

    mx: int
    my: int
    probs: np.ndarray

    def __post_init__(self):
        p = _as_real(self.probs, "behavior")
        if p.shape != (4 * self.mx * self.my,):
            raise ValueError(
                f"behavior needs {4 * self.mx * self.my} entries, got {p.shape}"
            )
        object.__setattr__(self, "probs", _frozen(p))

    def validate(self, entry_tol: float = ENTRY_TOL,
                 norm_tol: float = NORMALIZATION_TOL) -> None:
        p = self.probs
        finite = np.isfinite(p)
        if not finite.all():
            a, b, x, y = list(components(self.mx, self.my))[int(np.argmin(finite))]
            raise ValueError(
                f"behavior entry for (a,b,x,y)=({a},{b},{x},{y}) is not finite"
            )
        if p.min() < -entry_tol or p.max() > 1.0 + entry_tol:
            raise ValueError("behavior entries outside [0, 1]")
        for x in range(1, self.mx + 1):
            for y in range(1, self.my + 1):
                s = sum(self.prob(a, b, x, y) for a in OUTCOMES for b in OUTCOMES)
                if abs(s - 1.0) > norm_tol:
                    raise ValueError(
                        f"probabilities for x={x}, y={y} sum to {s!r}"
                    )

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.probs[component_index(a, b, x, y, self.mx, self.my)])

    def correlator(self, x: int, y: int) -> float:
        return sum(a * b * self.prob(a, b, x, y)
                   for a in OUTCOMES for b in OUTCOMES)

    def marginal_a(self, x: int, y: int = 1) -> float:
        """<A_x>, evaluated from the y-th block (y=1 by default)."""
        return sum(a * self.prob(a, b, x, y) for a in OUTCOMES for b in OUTCOMES)

    def marginal_b(self, y: int, x: int = 1) -> float:
        return sum(b * self.prob(a, b, x, y) for a in OUTCOMES for b in OUTCOMES)

    def no_signaling_defect(self) -> float:
        """Largest marginal discrepancy across the other side's inputs."""
        worst = 0.0
        for x in range(1, self.mx + 1):
            vals = [self.marginal_a(x, y) for y in range(1, self.my + 1)]
            worst = max(worst, max(vals) - min(vals))
        for y in range(1, self.my + 1):
            vals = [self.marginal_b(y, x) for x in range(1, self.mx + 1)]
            worst = max(worst, max(vals) - min(vals))
        return worst


def behavior(state: DensityMatrix, meas: MeasurementSet) -> Behavior:
    """Measured behavior p(a,b|x,y) = tr[rho (P_x^a x Q_y^b)]."""
    rho = state.entries
    mx, my = meas.mx, meas.my
    pa = {(x, a): meas.projector(0, x, a) for x in range(1, mx + 1) for a in OUTCOMES}
    pb = {(y, b): meas.projector(1, y, b) for y in range(1, my + 1) for b in OUTCOMES}
    probs = np.empty(4 * mx * my)
    for a, b, x, y in components(mx, my):
        val = float(np.trace(rho @ kron2(pa[(x, a)], pb[(y, b)])))
        probs[component_index(a, b, x, y, mx, my)] = val
    out = Behavior(mx, my, probs)
    out.validate()
    defect = out.no_signaling_defect()
    if defect > NO_SIGNALING_TOL:
        raise ValueError(f"no-signaling defect {defect} from a trace computation")
    return out


def chsh_value(b: Behavior) -> float:
    """<A1B1> + <A1B2> + <A2B1> - <A2B2>; needs at least 2 inputs per side."""
    if b.mx < 2 or b.my < 2:
        raise ValueError("CHSH needs two inputs on each side")
    return (b.correlator(1, 1) + b.correlator(1, 2)
            + b.correlator(2, 1) - b.correlator(2, 2))


def ibeta_value(b: Behavior, beta: float) -> float:
    """CHSH plus beta times Alice's first-input marginal."""
    return chsh_value(b) + float(beta) * b.marginal_a(1)


def beta_coefficient(theta: float) -> float:
    """Marginal weight that tilts CHSH toward the partially entangled state."""
    s = math.sin(2.0 * theta)
    return 2.0 * math.cos(2.0 * theta) / math.sqrt(1.0 + s * s)


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
    for a, bb, x, y in components(b.mx, b.my):
        buf.write(f"{a},{bb},{x},{y},{b.prob(a, bb, x, y):.17g}\n")
    return buf.getvalue()


def behavior_from_csv(text: str) -> Behavior:
    """Parse a behavior CSV; every (a,b,x,y) row must be present exactly once.
    Entries may leave [0, 1] by 1e-9 and each (x, y) sum may miss one by
    1e-6, the rounding a file's values carry.

    The a, b, x, y labels must be finite integral numbers (``1`` or ``1.0``).
    Raises ValueError naming the first malformed row, or the first missing or
    duplicated component.
    """
    rows: dict[tuple[int, int, int, int], float] = {}
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty behavior CSV")
    start = 1 if lines[0].lower().replace(" ", "").startswith("a,b,x,y") else 0
    for ln in lines[start:]:
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
        key = (a, b, x, y)
        if key in rows:
            raise ValueError(f"duplicate behavior row for (a,b,x,y)={key}")
        rows[key] = val
    mx = max(k[2] for k in rows)
    my = max(k[3] for k in rows)
    probs = np.empty(4 * mx * my)
    for a, b, x, y in components(mx, my):
        if (a, b, x, y) not in rows:
            raise ValueError(f"missing behavior row for (a,b,x,y)=({a},{b},{x},{y})")
        probs[component_index(a, b, x, y, mx, my)] = rows[(a, b, x, y)]
    if len(rows) != 4 * mx * my:
        extra = sorted(set(rows) - {c for c in components(mx, my)})
        raise ValueError(f"unexpected behavior rows {extra[:3]}")
    out = Behavior(mx, my, probs)
    out.validate(entry_tol=1e-9, norm_tol=1e-6)
    return out
