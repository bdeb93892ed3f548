"""Numerical side of the trade-off curve: best responses, boundary tracing,
see-saw search, exhaustive classical enumeration, and inequality samplers.

The reduced three-angle parameterization covers two antipodal pure
preparation pairs at relative angle ``theta`` with zero-offset unsharp
instruments along the pair axes; the final measurement is always handled
exactly through the largest-eigenvector best response.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import boundary_wac, witness_level
from .errors import (
    ConvergenceFailure,
    DomainError,
    InequalityViolation,
    InvalidPovm,
)
from .linalg import (
    BinaryPovm,
    bloch_compose,
    bloch_decompose,
    matrix_sqrt_psd,
    max_eigenpair,
    projective_povm,
    state_from_bloch,
    validate_povm,
)
from .sampling import random_povm, random_unit_vector
from .scenario import (
    INPUT_PAIRS,
    BinaryInstrument,
    PreparationEnsemble,
    Strategy,
    WitnessPair,
    difference_vectors,
    witness_pair,
)
from .strategies import X_AXIS, Z_AXIS, axis_instruments

HALF_PI = 0.5 * np.pi
# Cap on the sweeps of coordinate ascent over (theta, phi1).
REFINEMENT_ITERATIONS = 40


@dataclass(frozen=True)
class OptimizerConfig:
    grid_resolution: int = 512
    seesaw_restarts: int = 32
    convergence_epsilon: float = 1e-8
    rng_seed: int = 20250809

    def __post_init__(self):
        if min(self.grid_resolution, self.seesaw_restarts) < 1:
            raise DomainError("grid and restart counts must be positive")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be non-negative, got {self.rng_seed!r}")
        if not 0.0 < self.convergence_epsilon < 1e-3:
            raise DomainError("convergence_epsilon must lie in (0, 1e-3)")


@dataclass(frozen=True)
class ReducedParameters:
    """Angles of the reduced boundary problem.

    ``theta`` is the angle between the two antipodal preparation pairs;
    ``cos(phi0)`` and ``cos(phi1)`` are the instrument sharpnesses along
    the two pair axes.
    """

    theta: float
    phi0: float
    phi1: float

    def __post_init__(self):
        for name, v in (("theta", self.theta), ("phi0", self.phi0), ("phi1", self.phi1)):
            if not -1e-12 <= v <= HALF_PI + 1e-12:
                raise DomainError(f"{name} = {v!r} outside [0, pi/2]")


def reduced_objective(r: ReducedParameters) -> float:
    """Best-response Alice-Charlie witness of the reduced strategy family.

    ``1/2 + (cos(t/2) + sin(t/2) + cos(t/2) sin(phi1) + sin(t/2) sin(phi0)) / 8``.
    """
    c, s = np.cos(0.5 * r.theta), np.sin(0.5 * r.theta)
    return float(0.5 + (c + s + c * np.sin(r.phi1) + s * np.sin(r.phi0)) / 8.0)


def reduced_constraint(r: ReducedParameters) -> float:
    """Alice-Bob witness of the reduced strategy family.

    ``(4 + 2 cos(t/2) cos(phi0) + 2 sin(t/2) cos(phi1)) / 8``; the factor 2
    carries the full length of the signed Bloch sums for pure antipodal
    pairs.
    """
    c, s = np.cos(0.5 * r.theta), np.sin(0.5 * r.theta)
    return float((4.0 + 2.0 * c * np.cos(r.phi0) + 2.0 * s * np.cos(r.phi1)) / 8.0)


def strategy_from_reduced(
    r: ReducedParameters,
    measurements: tuple[BinaryPovm, BinaryPovm] | None = None,
) -> Strategy:
    """Explicit strategy realizing the reduced parameters.

    The preparation pairs sit in the xz-plane symmetric about the x axis,
    so their signed Bloch sums point along x and z; the instruments are
    minimally disturbing along those axes.  Default measurements are the
    sharp x and z readouts (the best response on this family).
    """
    c, s = np.cos(0.5 * r.theta), np.sin(0.5 * r.theta)
    u = np.array([c, 0.0, s])
    w = np.array([c, 0.0, -s])
    states = tuple(state_from_bloch(n) for n in (u, w, -w, -u))
    instruments = axis_instruments(float(np.cos(r.phi0)), float(np.cos(r.phi1)))
    if measurements is None:
        measurements = (projective_povm(X_AXIS), projective_povm(Z_AXIS))
    return Strategy(PreparationEnsemble(states), instruments, measurements)


def charlie_best_response(
    preparations: PreparationEnsemble,
    instruments: tuple[BinaryInstrument, BinaryInstrument],
) -> tuple[tuple[BinaryPovm, BinaryPovm], float]:
    """Optimal final measurements given the rest of the strategy.

    For each of Charlie's inputs the optimal effect projects onto the
    largest eigenvector of ``sum_{y,b} K (gamma_z) K^dag`` where
    ``gamma_z = sum_x (-1)^{x_z} rho_x``; no other POVM scores higher.
    Returns the two rank-one projective measurements and the witness they
    achieve.  Ties (zero operator) resolve to the computational-basis
    readout.
    """
    m0, m1 = difference_vectors(preparations)
    povms = []
    value = 0.5
    for m in (m0, m1):
        gamma = bloch_compose(0.0, 0.5 * m)
        total = instruments[0].apply_channel(gamma)
        total += instruments[1].apply_channel(gamma)
        total = 0.5 * (total + total.conj().T)
        lam, vec = max_eigenpair(total, tol=np.inf)
        proj = np.outer(vec, vec.conj())
        proj = 0.5 * (proj + proj.conj().T)
        c0, cvec = bloch_decompose(2.0 * proj - np.eye(2))
        povms.append(BinaryPovm((proj, np.eye(2, dtype=complex) - proj), c0, cvec))
        value += lam / 16.0
    return (povms[0], povms[1]), float(value)


def _invert_constraint(alpha: float, c, s, cos_phi1):
    """Solve ``reduced_constraint = alpha`` for ``cos(phi0)``, elementwise.

    Takes ``c, s = cos(theta/2), sin(theta/2)`` and ``cos(phi1)`` as floats
    or arrays.  Returns ``(required, feasible)``: the unclipped requirement
    and whether it lies within 1e-9 of [0, 1].
    """
    required = (8.0 * alpha - 4.0 - 2.0 * s * cos_phi1) / (2.0 * c)
    return required, (required >= -1e-9) & (required <= 1.0 + 1e-9)


def solve_reduced_phi0(alpha: float, theta: float, phi1: float) -> float | None:
    """Eliminate ``phi0`` from the witness constraint at level ``alpha``.

    Returns the angle whose cosine solves
    ``reduced_constraint = alpha`` exactly, or None when the requirement
    leaves [0, 1] by more than 1e-9.
    """
    if not math.isfinite(alpha + theta + phi1):
        raise DomainError(f"non-finite input: alpha={alpha!r}, theta={theta!r}, phi1={phi1!r}")
    return _fixed_charlie_value(alpha, theta, phi1, 1.0, 1.0)[1]


def _grid_argmax(alpha: float, resolution: int) -> tuple[float, float, float]:
    xs, cos_half, sin_half, cos_x, sin_x = _axis_table(resolution)
    # Theta runs down the rows, phi1 along the columns.  Unit Charlie
    # overlaps turn the fixed-measurement value into the boundary objective.
    obj = _fixed_charlie_values(alpha, cos_half[:, None], sin_half[:, None], cos_x, sin_x, 1.0, 1.0)
    i, j = np.unravel_index(int(np.argmax(obj)), obj.shape)
    return float(obj[i, j]), float(xs[i]), float(xs[j])


def _coordinate_refine(
    alpha: float, theta: float, phi1: float, value: float
) -> tuple[float, float, float]:
    # Unit Charlie overlaps turn the fixed-measurement scan into the
    # boundary objective itself.
    for _ in range(REFINEMENT_ITERATIONS):
        before = value
        theta, _ = _scan_coordinate(alpha, theta, phi1, 1.0, 1.0, coord=0, resolution=1025)
        phi1, value = _scan_coordinate(alpha, theta, phi1, 1.0, 1.0, coord=1, resolution=1025)
        if value <= before + 1e-15:
            break
    return value, theta, phi1


class BoundaryPoint(NamedTuple):
    alpha: float
    wac: float
    params: ReducedParameters


def trace_boundary(
    alphas: Sequence[float], cfg: OptimizerConfig | None = None
) -> list[BoundaryPoint]:
    """Numerically maximize the reduced objective at each witness level.

    Grid search over ``(theta, phi1)`` with ``phi0`` eliminated exactly,
    followed by bounded coordinate descent.  Raises
    :class:`ConvergenceFailure` when the numerical maximum strays more
    than 1e-6 from the closed-form boundary; the closed form is never
    substituted for the search result.
    """
    cfg = cfg or OptimizerConfig()
    out = []
    for alpha in alphas:
        alpha = witness_level("alpha", alpha, tol=1e-12)
        value, theta, phi1 = _grid_argmax(alpha, cfg.grid_resolution)
        if not np.isfinite(value):
            raise ConvergenceFailure(f"no feasible grid point at alpha = {alpha!r}")
        value, theta, phi1 = _coordinate_refine(alpha, theta, phi1, value)
        phi0 = solve_reduced_phi0(alpha, theta, phi1)
        if phi0 is None:
            raise ConvergenceFailure(f"refinement left the feasible set at alpha = {alpha!r}")
        params = ReducedParameters(theta, phi0, phi1)
        # Keep reduced_objective's grouping: _fixed_charlie_value(q=1) changes 6 CSV rows.
        obj = reduced_objective(params)
        if abs(obj - boundary_wac(alpha)) > 1e-6:
            raise ConvergenceFailure(
                f"refinement stalled at alpha = {alpha!r}: reached {obj!r}"
            )
        out.append(BoundaryPoint(alpha, obj, params))
    return out


@dataclass
class SeesawRun:
    """Per-restart trace: witness before and after each best-response step."""

    charlie_steps: list[tuple[float, float]] = field(default_factory=list)
    final_wac: float = -np.inf


@dataclass
class SeesawResult:
    strategy: Strategy
    pair: WitnessPair
    runs: list[SeesawRun]
    params: ReducedParameters


def _fixed_charlie_value(
    alpha: float, theta: float, phi1: float, q0: float, q1: float
) -> tuple[float, float | None]:
    """Witness against a fixed final measurement, ``phi0`` eliminated.

    ``q0``/``q1`` are the x and z components of Charlie's two observable
    Bloch vectors; the signed preparation sums stay on those axes for the
    whole reduced family.  Runs on plain floats: ``math.cos``/``math.sin``
    matched ``np.cos``/``np.sin`` bit for bit on [0, pi/2] (x86-64, glibc
    2.36, numpy 2.4), but ``math.acos`` does not match ``np.arccos``, so
    that call stays numpy.  ``tests/test_seesaw_trajectory.py`` pins the bits.
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    required, feasible = _invert_constraint(alpha, c, s, math.cos(phi1))
    if not feasible:
        return -1.0, None
    phi0 = float(np.arccos(min(max(required, 0.0), 1.0)))
    # Keep sin(arccos r): sqrt(1 - r^2) here changes 11 rows of the boundary CSV.
    value = 0.5 + (2.0 * c * (1.0 + math.sin(phi1)) * q0 + 2.0 * s * (1.0 + math.sin(phi0)) * q1) / 16.0
    return value, phi0


def _fixed_charlie_values(alpha: float, c, s, cos_phi1, sin_phi1, q0: float, q1: float) -> np.ndarray:
    """Vectorised :func:`_fixed_charlie_value` on ``c, s = cos(theta/2), sin(theta/2)``
    and ``cos(phi1)``, ``sin(phi1)``, which broadcast; ``-inf`` where infeasible."""
    required, feasible = _invert_constraint(alpha, c, s, cos_phi1)
    cos_phi0 = np.clip(required, 0.0, 1.0)
    # Keep sqrt(1 - r^2): sin(arccos r) here changes a row of the boundary CSV.
    sin_phi0 = np.sqrt(1.0 - cos_phi0**2)
    values = 0.5 + (
        2.0 * c * (1.0 + sin_phi1) * q0 + 2.0 * s * (1.0 + sin_phi0) * q1
    ) / 16.0
    return np.where(feasible, values, -np.inf)


@functools.lru_cache(maxsize=4)
def _axis_table(resolution: int) -> tuple[np.ndarray, ...]:
    """Read-only ``xs = linspace(0, pi/2, resolution)``, ``cos(xs/2)``,
    ``sin(xs/2)``, ``cos(xs)`` and ``sin(xs)``: the trigonometry of every scan."""
    xs = np.linspace(0.0, HALF_PI, resolution)
    half = 0.5 * xs
    table = (xs, np.cos(half), np.sin(half), np.cos(xs), np.sin(xs))
    for a in table:
        a.flags.writeable = False
    return table


def minimize_scalar(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimize ``func`` on ``[lo, hi]``; returns ``(x, func(x))``.

    Brent's bounded method (golden section with parabolic steps), as in
    scipy's ``minimize_scalar(method="bounded")`` with at most 500
    evaluations.  It performs the same float operations in the same order,
    so ``x`` and ``f(x)`` equal scipy's bit for bit, on plain floats and
    without scipy's per-call overhead.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"bounds must be finite with lo <= hi, got ({lo!r}, {hi!r})")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Parabolic fit through the three best points.
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _scan_coordinate(
    alpha: float, theta: float, phi1: float, q0: float, q1: float,
    coord: int, resolution: int = 513,
) -> tuple[float, float]:
    """Best value of one angle with the other held fixed.

    The feasible region can be a narrow window inside [0, pi/2], so a
    dense feasibility-aware scan picks the basin and a bounded search
    polishes inside the bracketing cells.
    """
    xs, cos_half, sin_half, cos_x, sin_x = _axis_table(resolution)
    if coord == 0:
        values = _fixed_charlie_values(alpha, cos_half, sin_half, np.cos(phi1), np.sin(phi1), q0, q1)
    else:
        half = 0.5 * theta
        values = _fixed_charlie_values(alpha, np.cos(half), np.sin(half), cos_x, sin_x, q0, q1)
    i = int(np.argmax(values))
    here = _fixed_charlie_value(alpha, theta, phi1, q0, q1)[0]
    if not np.isfinite(values[i]):
        return (theta if coord == 0 else phi1), here
    best_x, best_v = float(xs[i]), float(values[i])

    def negated(t):
        th_, p1_ = (t, phi1) if coord == 0 else (theta, t)
        return -_fixed_charlie_value(alpha, th_, p1_, q0, q1)[0]

    x, fx = minimize_scalar(
        negated, float(xs[max(0, i - 1)]), float(xs[min(resolution - 1, i + 1)]), 1e-14
    )
    if -fx > best_v:
        best_x, best_v = x, -fx
    if best_v > here:
        return best_x, best_v
    return (theta if coord == 0 else phi1), here


def _seesaw_round(
    alpha: float, theta: float, phi1: float, charlie: tuple[BinaryPovm, BinaryPovm]
) -> tuple[ReducedParameters, float, tuple[BinaryPovm, BinaryPovm], float]:
    """One see-saw round: refine ``(theta, phi1)`` against Charlie's
    measurements, then best-respond.  Returns the refined parameters, the
    witness before and after the best response, and the new measurements."""
    q0 = float(charlie[0].cvec[0])
    q1 = float(charlie[1].cvec[2])
    for _ in range(REFINEMENT_ITERATIONS):
        here = _fixed_charlie_value(alpha, theta, phi1, q0, q1)[0]
        theta, _ = _scan_coordinate(alpha, theta, phi1, q0, q1, coord=0)
        phi1, moved_v = _scan_coordinate(alpha, theta, phi1, q0, q1, coord=1)
        if moved_v <= here + 1e-15:
            break

    before, phi0 = _fixed_charlie_value(alpha, theta, phi1, q0, q1)
    params = ReducedParameters(theta, phi0, phi1)
    partial = strategy_from_reduced(params, charlie)
    charlie, after = charlie_best_response(partial.preparations, partial.instruments)
    return params, before, charlie, after


def _seesaw_reduced_run(
    alpha: float,
    cfg: OptimizerConfig,
    theta: float,
    phi1: float,
    charlie: tuple[BinaryPovm, BinaryPovm],
    run: SeesawRun,
    rounds: dict,
) -> tuple[float, ReducedParameters, tuple[BinaryPovm, BinaryPovm]]:
    """Run rounds to convergence.  Charlie enters a round only through
    ``q0 = cvec[0]`` and ``q1 = cvec[2]``, so ``rounds`` replays a round
    already run from the same start, keyed by the exact bits of its floats."""
    value = -np.inf
    for _ in range(200):
        key = tuple(map(float.hex, (theta, phi1, charlie[0].cvec[0], charlie[1].cvec[2])))
        if key not in rounds:
            rounds[key] = _seesaw_round(alpha, theta, phi1, charlie)
        params, before, charlie, after = rounds[key]
        theta, phi1 = params.theta, params.phi1
        run.charlie_steps.append((before, after))
        if after - value < cfg.convergence_epsilon:
            value = after
            break
        value = after
    run.final_wac = value
    return value, params, charlie


def _random_feasible_start(alpha: float, rng: np.random.Generator):
    for _ in range(256):
        theta = rng.uniform(0.0, HALF_PI)
        phi1 = rng.uniform(0.0, HALF_PI)
        if solve_reduced_phi0(alpha, theta, phi1) is not None:
            return theta, phi1
    return None


def seesaw(alpha: float, cfg: OptimizerConfig | None = None) -> SeesawResult:
    """Alternating maximization of the Alice-Charlie witness at fixed ``alpha``.

    Each round alternates a parameter update (preparations and instruments,
    with the witness constraint eliminated exactly) against an exact
    eigenvector best response for the final measurement, so the witness
    never decreases across best-response steps.  Restart 0 is seeded from
    a coarse grid, the rest from the seeded generator; the best restart
    wins, ties broken by lower restart index.
    """
    cfg = cfg or OptimizerConfig()
    alpha = witness_level("alpha", alpha, tol=1e-12)
    _, grid_theta, grid_phi1 = _grid_argmax(alpha, 64)
    runs: list[SeesawRun] = []
    rounds: dict = {}  # lives for this call only; see _seesaw_reduced_run
    best = None
    for restart in range(cfg.seesaw_restarts):
        rng = np.random.default_rng([cfg.rng_seed, restart])
        if restart == 0:
            start = (grid_theta, grid_phi1)
            charlie = (projective_povm(X_AXIS), projective_povm(Z_AXIS))
        else:
            start = _random_feasible_start(alpha, rng)
            charlie = (
                projective_povm(random_unit_vector(rng)),
                projective_povm(random_unit_vector(rng)),
            )
            if start is None:
                start = (grid_theta, grid_phi1)
        run = SeesawRun()
        value, params, charlie = _seesaw_reduced_run(
            alpha, cfg, start[0], start[1], charlie, run, rounds
        )
        runs.append(run)
        if best is None or value > best[0]:
            best = (value, params, charlie)
    if best is None or not np.isfinite(best[0]):
        raise ConvergenceFailure(f"all restarts failed at alpha = {alpha!r}")
    strategy = strategy_from_reduced(best[1], best[2])
    return SeesawResult(strategy, witness_pair(strategy), runs, best[1])


class ClassicalBruteforce(NamedTuple):
    max_w_ab: float
    max_w_ac: float
    extremes: tuple[WitnessPair, ...]


def _classical_hits() -> tuple[np.ndarray, np.ndarray]:
    """Success counts ``ab[e, b]`` (of 8) and ``ac[e, r, c]`` (of 16) of
    every deterministic strategy, indexed by its 4-bit table codes."""
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1  # bits[code, entry]
    tables = bits.reshape(16, 2, 2)  # tables[code, m, k] = entry 2*m + k
    # hits[code, m, i]: correct guesses of x_k over k = 0, 1 by an answer
    # table reading message m on input pair i.  Bob and Charlie share it.
    hits = (tables[:, :, None, :] == np.array(INPUT_PAIRS)).sum(axis=3)
    pairs = np.arange(4)
    ab = hits[:, bits, pairs].sum(axis=2).T
    relayed = tables[:, bits, :]  # relayed[r, e, i, y]
    ac = hits[:, relayed, pairs[:, None]].sum(axis=(3, 4)).transpose(2, 1, 0)
    return ab, ac


def classical_bruteforce() -> ClassicalBruteforce:
    """Enumerate all 65536 deterministic classical strategies exactly.

    Success counts are integers, so the maxima and the convex-hull
    extreme points of the attainable witness set are exact.
    """
    ab, ac = _classical_hits()
    # One integer key per (2 * ab, ac) point over all (e, b, r, c); both
    # coordinates lie in [0, 16], so base 17 keeps the sort order.
    keys = 17 * (2 * ab)[:, :, None, None] + ac[:, None, :, :]
    points = [divmod(int(k), 17) for k in np.unique(keys)]  # common denominator 16
    extremes = tuple(WitnessPair(p / 16.0, q / 16.0) for p, q in _integer_hull(points))
    return ClassicalBruteforce(int(ab.max()) / 8.0, int(ac.max()) / 16.0, extremes)


def _integer_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convex hull (monotone chain) of integer points, counterclockwise."""
    if len(points) <= 2:
        return points

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class BoundSample(NamedTuple):
    lhs: float
    rhs: float
    equality: bool


def sandwich_eigenvalue_sum_bound(povm, direction, tol: float = 1e-9) -> BoundSample:
    """Check ``sum_b lambda_max[sqrt(M_b) (a.sigma) sqrt(M_b)] <= |a|``.

    Equality holds exactly when the direction is (anti)parallel to the
    measurement's Bloch axis, or the axis vanishes.  Raises
    :class:`InequalityViolation` if the bound fails beyond ``tol``.
    """
    if not isinstance(povm, BinaryPovm):
        try:
            povm = validate_povm(povm[0], povm[1])
        except Exception as exc:
            raise InvalidPovm(str(exc)) from exc
    a = np.asarray(direction, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise DomainError(f"direction must be a finite 3-vector, got {direction!r}")
    rhs = float(np.linalg.norm(a))
    if rhs == 0.0:
        return BoundSample(0.0, 0.0, True)
    op = bloch_compose(0.0, a)
    lhs = 0.0
    for effect in povm.effects:
        root = matrix_sqrt_psd(effect, tol=np.inf)
        lhs += max_eigenpair(root @ op @ root, tol=np.inf).value
    if lhs > rhs + tol:
        raise InequalityViolation(
            f"eigenvalue sum {lhs!r} exceeds |a| = {rhs!r}"
        )
    sharp = povm.sharpness
    if sharp <= tol:
        aligned = True
    else:
        aligned = abs(abs(float(np.dot(povm.cvec, a))) / (sharp * rhs) - 1.0) <= tol
    return BoundSample(float(lhs), rhs, aligned)


def trig_inequality_value(theta: float, phi0: float, phi1: float) -> float:
    """Evaluate ``cos(t)(cos^2 p0 - cos^2 p1) + sin(t) cos(p0 - p1)``.

    The expression is at most 1 on ``t in [0, pi]``,
    ``p0, p1 in [0, pi/2]``; exceeding 1 beyond 1e-12 raises
    :class:`InequalityViolation`.
    """
    if not -1e-12 <= theta <= np.pi + 1e-12:
        raise DomainError(f"theta = {theta!r} outside [0, pi]")
    for name, p in (("phi0", phi0), ("phi1", phi1)):
        if not -1e-12 <= p <= HALF_PI + 1e-12:
            raise DomainError(f"{name} = {p!r} outside [0, pi/2]")
    value = float(
        np.cos(theta) * (np.cos(phi0) ** 2 - np.cos(phi1) ** 2)
        + np.sin(theta) * np.cos(phi0 - phi1)
    )
    if value > 1.0 + 1e-12:
        raise InequalityViolation(f"trigonometric bound exceeded: {value!r}")
    return value


# Largest per-axis resolution of ``trig_grid_max``: one theta slab holds
# resolution**2 float64 values, about 100 MB at this size.
TRIG_GRID_MAX = 3500


def trig_grid_max(resolution: int) -> float:
    """Maximum of the trigonometric bound expression on a full-domain grid.

    The ``resolution**3`` grid is scanned one theta slab at a time, so
    memory grows with ``resolution**2``; ``resolution`` must lie in
    ``[1, TRIG_GRID_MAX]``.
    """
    if not 1 <= resolution <= TRIG_GRID_MAX:
        raise DomainError(f"grid = {resolution!r} outside [1, {TRIG_GRID_MAX}]")
    theta = np.linspace(0.0, np.pi, resolution)
    phi0 = np.linspace(0.0, HALF_PI, resolution)[:, None]
    phi1 = np.linspace(0.0, HALF_PI, resolution)[None, :]
    spread = np.cos(phi0) ** 2 - np.cos(phi1) ** 2
    overlap = np.cos(phi0 - phi1)
    return float(
        max((c * spread + s * overlap).max() for c, s in zip(np.cos(theta), np.sin(theta)))
    )


def inequality_report(samples: int, grid: int, seed: int) -> dict:
    """Run the three sampling suites; raises on any violation.

    Returns the maximal residuals: eigenvalue-sum bound margin over random
    measurement/direction draws, the trig-expression grid maximum, and the
    worst disagreement between the closed-form sandwich eigenvalue and a
    direct eigensolve.
    """
    if samples < 1 or grid < 1:
        raise DomainError(f"samples and grid must be positive, got {samples!r} and {grid!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed!r}")
    trig_max = trig_grid_max(grid)
    if trig_max > 1.0 + 1e-12:
        raise InequalityViolation(f"trig grid maximum {trig_max!r} exceeds 1")

    rng = np.random.default_rng([seed, 11])
    bound_margin = -np.inf
    for _ in range(samples):
        povm = random_povm(rng)
        a = rng.normal(size=3) * rng.uniform(0.0, 2.0)
        sample = sandwich_eigenvalue_sum_bound(povm, a)
        bound_margin = max(bound_margin, sample.lhs - sample.rhs)

    rng = np.random.default_rng([seed, 13])
    eigen_residual = 0.0
    for _ in range(samples):
        povm = random_povm(rng, allow_offset=False)
        direction = random_unit_vector(rng)
        op = bloch_compose(0.0, direction)
        for b in (0, 1):
            root = matrix_sqrt_psd(povm.effects[b], tol=np.inf)
            direct = max_eigenpair(root @ op @ root, tol=np.inf).value
            closed = sandwich_eigenvalue_closed_form(povm, direction, b)
            eigen_residual = max(eigen_residual, abs(direct - closed))
    if eigen_residual > 1e-10:
        raise InequalityViolation(
            f"closed-form eigenvalue residual {eigen_residual!r} exceeds 1e-10"
        )

    return {
        "bound_margin_max": float(bound_margin),
        "trig_max": trig_max,
        "eigen_residual_max": float(eigen_residual),
    }


def sandwich_eigenvalue_closed_form(povm: BinaryPovm, direction, outcome: int) -> float:
    """Closed-form ``lambda_max[sqrt(M_b) (a.sigma) sqrt(M_b)]``.

    With sharpness ``eta``, offset ``c0`` and ``cos(beta)`` the unit-vector
    overlap with the measurement axis:

    ``|a|/2 * ((-1)^b eta cos(beta)
               + sqrt((1 + (-1)^b c0)^2 - eta^2 (1 - cos(beta)^2)))``

    The odd first term cancels in the sum over outcomes, leaving the
    square-root sum used by the trade-off bound.
    """
    a = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(a))
    if a.shape != (3,) or not math.isfinite(norm):
        raise DomainError(f"direction must be a finite 3-vector, got {direction!r}")
    if norm == 0.0:
        return 0.0
    sign = -1.0 if outcome else 1.0
    eta = povm.sharpness
    cos_beta = float(np.dot(povm.cvec, a)) / (eta * norm) if eta > 1e-15 else 0.0
    cos_beta = float(np.clip(cos_beta, -1.0, 1.0))
    radicand = max((1.0 + sign * povm.c0) ** 2 - eta * eta * (1.0 - cos_beta**2), 0.0)
    return 0.5 * norm * (sign * eta * cos_beta + float(np.sqrt(radicand)))
