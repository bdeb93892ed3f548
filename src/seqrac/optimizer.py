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
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import boundary_wac, witness_level
from .errors import (
    ConvergenceFailure,
    DomainError,
    InequalityViolation,
    InvalidPovm,
    require_integer,
    require_real,
    require_tol,
)
from .linalg import (
    HERM_TOL,
    MAX_ENTRY,
    BinaryPovm,
    QubitState,
    _bloch_compose_rows,
    _dot,
    _dots,
    _max_eigvalue_rows,
    _norm,
    _sqrt_psd_rows,
    _top_eigenvector,
    _vector3,
    bloch_compose,
    bloch_decompose,
    max_eigenpair,
    projective_povm,
    state_from_bloch,
    validate_povm,
)
from .sampling import random_unit_vector
from .scenario import (
    INPUT_PAIRS,
    BinaryInstrument,
    Strategy,
    WitnessPair,
    _channel_sum,
    difference_vectors,
    witness_pair,
)
from .strategies import X_AXIS, Z_AXIS, axis_instruments

HALF_PI = 0.5 * np.pi
# Points per axis of the (theta, phi1) grid that seeds each boundary level.
GRID_RESOLUTION = 512
# Cap on the sweeps of coordinate ascent over (theta, phi1).
REFINEMENT_ITERATIONS = 40
# Restarts of one see-saw call, and the gain below which a restart stops.
SEESAW_RESTARTS = 32
CONVERGENCE_EPSILON = 1e-8
# Slack of the eigenvalue-sum bound and of its alignment test.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    rng_seed: int = 20250809

    def __post_init__(self):
        require_integer(self.rng_seed, "rng_seed", 0)


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
        for f in fields(self):
            require_real(getattr(self, f.name), f.name, -1e-12, HALF_PI + 1e-12)


def _require_reduced(r) -> None:
    if not isinstance(r, ReducedParameters):
        raise DomainError(f"r must be a ReducedParameters, got {r!r}")


def reduced_objective(r: ReducedParameters) -> float:
    """Best-response Alice-Charlie witness of the reduced strategy family.

    ``1/2 + (cos(t/2) + sin(t/2) + cos(t/2) sin(phi1) + sin(t/2) sin(phi0)) / 8``.
    """
    _require_reduced(r)
    c, s = np.cos(0.5 * r.theta), np.sin(0.5 * r.theta)
    return float(0.5 + (c + s + c * np.sin(r.phi1) + s * np.sin(r.phi0)) / 8.0)


def strategy_from_reduced(r: ReducedParameters) -> Strategy:
    """Explicit strategy realizing the reduced parameters.

    The preparation pairs sit in the xz-plane symmetric about the x axis,
    so their signed Bloch sums point along x and z; the instruments are
    minimally disturbing along those axes.  The measurements are the
    sharp x and z readouts (the best response on this family).
    """
    _require_reduced(r)
    c, s = np.cos(0.5 * r.theta), np.sin(0.5 * r.theta)
    u = np.array([c, 0.0, s])
    w = np.array([c, 0.0, -s])
    states = tuple(state_from_bloch(n) for n in (u, w, -w, -u))
    instruments = axis_instruments(float(np.cos(r.phi0)), float(np.cos(r.phi1)))
    measurements = (projective_povm(X_AXIS), projective_povm(Z_AXIS))
    return Strategy(states, instruments, measurements)


def charlie_best_response(
    preparations: tuple[QubitState, ...],
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
    gammas = np.array([bloch_compose(0.0, 0.5 * m) for m in difference_vectors(preparations)])
    projectors, value = _best_projectors(_channel_sum(instruments, gammas))
    eye = np.eye(2)
    povms = [BinaryPovm(np.array([p, eye - p]), *bloch_decompose(2.0 * p - eye)) for p in projectors]
    return (povms[0], povms[1]), value


def _best_projectors(totals: np.ndarray) -> tuple[np.ndarray, float]:
    """Projectors onto the largest eigenvectors of the two channel sums (which
    ``max_eigenpair`` symmetrises), and the witness ``1/2 + sum_z lambda_z / 16``."""
    (lam0, vec0), (lam1, vec1) = (max_eigenpair(total, tol=np.inf) for total in totals)
    vecs = np.array([vec0, vec1])
    proj = vecs[:, :, None] * vecs.conj()[:, None, :]  # np.outer of each vector
    return 0.5 * (proj + proj.conj().transpose(0, 2, 1)), 0.5 + lam0 / 16.0 + lam1 / 16.0


def _reduced_best_response(theta: float, phi0: float, phi1: float) -> tuple[float, float, float]:
    """``charlie_best_response`` on ``strategy_from_reduced(theta, phi0, phi1)`` read as Charlie's
    overlaps ``q0 = cvec[0]``, ``q1 = cvec[2]`` and the witness, by its float operations on real
    Python scalars around one stacked ``@`` (OpenBLAS).  Every matrix of the family is real, the
    sums' ``+ 0.0`` clears the sign of every zero in a branch, and the phase fix is left out: it
    flips the eigenvector's sign or keeps it, and neither ``q0 = 2 x1 x0`` nor ``q1`` sees that."""
    c2, s2 = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
    gammas = np.array([0.0, c2, c2, 0.0, s2, 0.0, 0.0, -s2]).reshape(2, 2, 2)
    hx, hz = 0.5 * math.cos(phi0), 0.5 * math.cos(phi1)
    roots = []
    for a, b, d in ((0.5, hx, 0.5), (0.5, -hx, 0.5), (0.5 + hz, 0.0, 0.5 - hz), (0.5 - hz, 0.0, 0.5 + hz)):
        # matrix_sqrt_psd's float operations, abs(b) ** 2 (libm's pow) included.
        root_det = math.sqrt(max(a * d - abs(b) ** 2, 0.0))
        scale = 1.0 / math.sqrt(max(a + d, 0.0) + 2.0 * root_det)
        roots += [(a + root_det) * scale, (b + 0.0) * scale, (b + 0.0) * scale, (d + root_det) * scale]
    kraus = np.array(roots).reshape(4, 2, 2)
    branches = (kraus[:, None] @ gammas @ kraus.transpose(0, 2, 1)[:, None]).reshape(4, 8)
    sums = [((w + 0.0) + (x + 0.0)) + ((y + 0.0) + (z + 0.0)) for w, x, y, z in zip(*branches.tolist())]
    vecs = []
    for h00, h01, h10, h11 in (sums[:4], sums[4:]):
        # _hermitian_part: 0.5 * (x + x) == x leaves the diagonal as it is.
        lam, vec = _top_eigenvector(h00, 0.5 * (h01 + h10), h11)
        scl = 1.0 / _norm(np.array(vec))  # vec /= np.linalg.norm(vec), a ddot
        vecs += [vec[0] * scl, vec[1] * scl, lam]
    x0, x1, lam0, z0, z1, lam1 = vecs  # bloch_decompose(2 v v^T - I) reads cvec[0] and cvec[2]
    q1 = 0.5 * ((2.0 * (z0 * z0) - 1.0) - (2.0 * (z1 * z1) - 1.0))
    return 2.0 * (x1 * x0), q1, 0.5 + lam0 / 16.0 + lam1 / 16.0


def _grid_argmax(alpha: float, resolution: int) -> tuple[float, float, float]:
    xs, c2, s2, cos_x, sin1_x = _axis_table(resolution)
    # Theta runs down the rows, phi1 along the columns, in slabs of about 32k
    # cells; a slab wins only on a strictly larger maximum, as np.argmax keeps
    # the first.  Unit Charlie overlaps make the value the boundary objective.
    rows = max(1, 32768 // resolution)
    best = (-np.inf, 0, 0)
    for i in range(0, resolution, rows):
        slab = slice(i, i + rows)
        obj = _charlie_values(alpha, c2[slab, None], s2[slab, None], cos_x, sin1_x, 1.0, 1.0)
        j = int(np.argmax(obj))
        if obj.flat[j] > best[0]:
            best = (float(obj.flat[j]), i + j // resolution, j % resolution)
    return best[0], float(xs[best[1]]), float(xs[best[2]])


class BoundaryPoint(NamedTuple):
    alpha: float
    wac: float
    params: ReducedParameters


def trace_boundary(
    alphas: Sequence[float], cfg: OptimizerConfig | None = None
) -> list[BoundaryPoint]:
    """Numerically maximize the reduced objective at each witness level.

    Grid search over ``(theta, phi1)`` with ``phi0`` eliminated exactly,
    followed by bounded coordinate ascent; ``cfg`` (``None`` or an unused config) sets nothing.
    Raises :class:`ConvergenceFailure` when the numerical maximum strays more
    than 1e-6 from the closed-form boundary; the closed form is never
    substituted for the search result.  :class:`DomainError` if ``alphas`` is
    not iterable or a level is out of range.
    """
    if cfg is not None and not isinstance(cfg, OptimizerConfig):
        raise DomainError(f"cfg must be an OptimizerConfig or None, got {cfg!r}")
    try:
        if isinstance(alphas, (str, bytes, bytearray)):  # iterable, but not of levels
            raise TypeError
        levels = iter(alphas)
    except TypeError:
        raise DomainError(f"alphas must be a sequence of levels, got {alphas!r}") from None
    out = []
    for alpha in levels:
        alpha = witness_level("alpha", alpha, tol=1e-12)
        value, theta, phi1 = _grid_argmax(alpha, GRID_RESOLUTION)
        if not np.isfinite(value):
            raise ConvergenceFailure(f"no feasible grid point at alpha = {alpha!r}")
        [(_, theta, phi0, phi1)] = _ascend(alpha, [(theta, phi1, 1.0, 1.0)], 1025)
        if phi0 is None:
            raise ConvergenceFailure(f"refinement left the feasible set at alpha = {alpha!r}")
        params = ReducedParameters(theta, phi0, phi1)
        # Keep reduced_objective's grouping: _charlie_value at unit overlaps changes 6 CSV rows.
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


def _charlie_value(k, c2, s2, cos_phi1, sin1_phi1, q0, q1) -> tuple[float, float | None]:
    """Witness against a fixed final measurement, and ``phi0`` solved from the Alice-Bob
    witness ``(4 + c2 cos(phi0) + s2 cos(phi1)) / 8 = alpha``; ``(-1.0, None)`` if infeasible.

    The factors are ``k = 8 alpha - 4``, ``c2, s2 = 2 cos(theta/2), 2 sin(theta/2)``,
    ``cos(phi1)`` and ``1 + sin(phi1)``.  ``q0``/``q1`` are the x and z components of
    Charlie's observable Bloch vectors, on whose axes the signed preparation sums stay.

    Runs on plain floats: ``math.cos``/``math.sin`` matched ``np.cos``/``np.sin`` bit for
    bit on [0, pi/2] (x86-64, glibc 2.36, numpy 2.4).  ``math.acos`` differs from
    ``np.arccos`` only where numpy runs its AVX-512 (X86_V4) routine, as the pins did, so
    that call stays numpy (README, on the bit pins' platform; ``test_seesaw_trajectory``).
    """
    # Solve that witness = alpha for cos(phi0); feasible within 1e-9 of [0, 1].
    required = (k - s2 * cos_phi1) / c2
    if not -1e-9 <= required <= 1.0 + 1e-9:
        return -1.0, None
    # The clip to [0, 1] is min(max(required, 0.0), 1.0), -0.0 kept.
    phi0 = float(np.arccos(0.0 if 0.0 > required else 1.0 if required > 1.0 else required))
    # Keep sin(arccos r): sqrt(1 - r^2) here changes 11 rows of the boundary CSV.
    value = 0.5 + (c2 * sin1_phi1 * q0 + s2 * (1.0 + math.sin(phi0)) * q1) / 16.0
    return value, phi0


def _charlie_values(alpha: float, c2, s2, cos_phi1, sin1_phi1, q0, q1) -> np.ndarray:
    """Vectorised :func:`_charlie_value`, ``-inf`` where infeasible, on
    broadcasting factors: a row, a slab of the grid, or one row per lane of
    the ascent, whose fixed angles' factors and overlaps come as ``(n, 1)``
    columns.  Products and sums group as in the scalar formula and run in
    place, so every element takes the scalar formula's float operations, on
    its own or in a stack.  ``x * 1.0 == x`` exactly, so the grid's scalar
    overlaps ``1.0`` multiply as a lane's unit column does."""
    r = s2 * cos_phi1
    np.divide(np.subtract(8.0 * alpha - 4.0, r, out=r), c2, out=r)
    infeasible = r < -1e-9  # r is finite: c2 >= 2 cos(pi/4)
    infeasible |= r > 1.0 + 1e-9
    # Keep sqrt(1 - r^2) (sin(arccos r) changes a row of the boundary CSV); the clip of r to
    # [0, 1] is a cap of r^2 at 1, as 1 - r^2 == 1.0 for a feasible r in [-1e-9, 0).
    np.minimum(np.square(r, out=r), 1.0, out=r)
    np.sqrt(np.subtract(1.0, r, out=r), out=r)
    r += 1.0
    r *= s2
    r *= q1
    r += np.multiply(t := c2 * sin1_phi1, q0, out=t)  # in place: one slab-sized temporary
    r /= 16.0
    r += 0.5
    np.copyto(r, -np.inf, where=infeasible)
    return r


@functools.lru_cache(maxsize=4)
def _axis_table(resolution: int) -> tuple[np.ndarray, ...]:
    """Read-only ``xs = linspace(0, pi/2, resolution)``, ``2 cos(xs/2)``,
    ``2 sin(xs/2)``, ``cos(xs)`` and ``1 + sin(xs)``: the trigonometry of
    every row.  Doubling is exact, so the factors carry no new rounding."""
    xs = np.linspace(0.0, HALF_PI, resolution)
    half = 0.5 * xs
    table = (xs, 2.0 * np.cos(half), 2.0 * np.sin(half), np.cos(xs), 1.0 + np.sin(xs))
    for a in table:
        a.flags.writeable = False
    return table


def minimize_scalar(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimize ``func`` on ``[lo, hi]``; returns ``(x, func(x))``.

    Brent's bounded method (golden section with parabolic steps), as in
    scipy's ``minimize_scalar(method="bounded")`` with at most 500
    evaluations.  It performs the same float operations in the same order,
    so ``x`` and ``f(x)`` equal scipy's bit for bit, on plain floats and
    without scipy's per-call overhead.  :class:`DomainError` where ``hi - lo``
    or ``lo + hi`` overflows, or where the result lies outside ``[lo, hi]``
    (the parabolic fit's products overflow once ``|x| |f(x)|`` nears the
    float range): scipy returns a point outside the bounds there.
    """
    lo = require_real(lo, "lo")
    hi = require_real(hi, "hi", lo)
    if math.isinf(hi - lo) or math.isinf(lo + hi):  # the bracket's width or midpoint
        raise DomainError(f"bounds [{lo!r}, {hi!r}] overflow: hi - lo or lo + hi is not finite")
    xatol = require_tol(xatol, "xatol")
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

        # xf + (step if rat >= 0.0 else -step), step = max(abs(rat), tol1), NaN kept.
        x = xf + ((tol1 if tol1 > rat else rat) if rat >= 0.0 else (-tol1 if -tol1 < rat else rat))
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
    if not lo <= xf <= hi:
        raise DomainError(f"search left [{lo!r}, {hi!r}]: returned {xf!r}, as f's scale overflows its fit")
    return xf, fx


def _search_coordinate(xs: np.ndarray, row: np.ndarray, objective) -> tuple[float, float]:
    """Line search of one angle: ``row`` holds the value on the grid ``xs``
    and ``objective`` its negation (``1.0`` where infeasible).  Returns the
    best angle and value found, ``(0.0, -inf)`` if no grid point is feasible.

    The feasible region can be a narrow window inside [0, pi/2], so a
    dense feasibility-aware scan picks the basin and a bounded search
    polishes inside the bracketing cells.
    """
    i = int(row.argmax())
    if not math.isfinite(row[i]):
        return 0.0, -math.inf
    lo, hi = float(xs[max(0, i - 1)]), float(xs[min(len(xs) - 1, i + 1)])
    t, ft = minimize_scalar(objective, lo, hi, 1e-14)
    return (t, -ft) if -ft > row[i] else (float(xs[i]), float(row[i]))


def _ascend(
    alpha: float, lanes: Sequence[tuple[float, float, float, float]], resolution: int
) -> list[tuple[float, float, float | None, float]]:
    """Coordinate ascent of :func:`_charlie_value` over ``(theta, phi1)``, one
    lane per start ``(theta, phi1, q0, q1)``, all lanes in lockstep.

    Each sweep scans theta, then phi1, on ``resolution``-point rows.  A lane
    stops once a sweep gains at most 1e-15 over its starting value or, after
    its first theta step, at the first step that leaves its angle unchanged by
    ``float.hex``.  A line search depends only on the fixed angle, so the next
    search would repeat the last, and a repeat finds the angle where it is or a
    point rejected against the same value: only sweeps that move nothing and
    call no Brent are dropped.  Returns, per lane, the final value, ``theta``,
    ``phi0`` and ``phi1``; unit overlaps ``q0 = q1 = 1`` make the value the
    boundary objective.  Each step stacks the rows of the lanes that scan into
    one ``(lanes, resolution)`` call, with their factors and overlaps as
    ``(n, 1)`` columns.  Every element goes through its float operations as
    on its own and Brent runs per lane, so a lane's floats do not depend on
    the other lanes.
    """
    xs, c2_x, s2_x, cos_x, sin1_x = _axis_table(resolution)
    k = 8.0 * alpha - 4.0
    lanes = [list(lane) for lane in lanes]  # [theta, phi1, q0, q1], updated in place
    running = lanes
    for sweep in range(REFINEMENT_ITERATIONS):
        if not running:
            break
        # The fixed angle's factors and the overlaps, once per scan, feed the row and Brent.
        fixed = [(math.cos(p), 1.0 + math.sin(p), *q) for _, p, *q in running]
        rows = _charlie_values(alpha, c2_x, s2_x, *np.array(fixed).T[:, :, None])
        steps = []  # (lane, its starting value, its value after the theta step)
        for lane, factors, row in zip(running, fixed, rows):
            theta = lane[0]
            along = _along_theta(k, *factors)
            here = -along(theta)
            t, value = _search_coordinate(xs, row, along)
            moved = lane[0] = t if value > here else theta
            if sweep == 0 or moved.hex() != theta.hex():
                steps.append((lane, here, here if moved == theta else -along(moved)))
        if not steps:
            break
        halves = [(2.0 * math.cos(0.5 * t), 2.0 * math.sin(0.5 * t), *q) for (t, _, *q), _, _ in steps]
        c2, s2, q0, q1 = np.array(halves).T[:, :, None]
        rows = _charlie_values(alpha, c2, s2, cos_x, sin1_x, q0, q1)
        running = []
        for (lane, here, start), factors, row in zip(steps, halves, rows):
            phi1, value = _search_coordinate(xs, row, _along_phi1(k, *factors))
            moved = phi1 if value > start else lane[1]
            if moved.hex() != lane[1].hex() and value > here + 1e-15:
                running.append(lane)
            lane[1] = moved
    out = []
    for t, p, a, b in lanes:
        c2, s2 = 2.0 * math.cos(0.5 * t), 2.0 * math.sin(0.5 * t)
        value, phi0 = _charlie_value(k, c2, s2, math.cos(p), 1.0 + math.sin(p), a, b)
        out.append((value, t, phi0, p))
    return out


def _along_theta(k: float, cos_phi1: float, sin1_phi1: float, q0: float, q1: float):
    """Brent's objective along theta at a fixed ``phi1``, given as ``cos(phi1)`` and
    ``1 + sin(phi1)``: minus :func:`_charlie_value`, ``1.0`` where infeasible."""
    value_at = _charlie_value

    def along_theta(t: float) -> float:
        c2, s2 = 2.0 * math.cos(0.5 * t), 2.0 * math.sin(0.5 * t)
        return -value_at(k, c2, s2, cos_phi1, sin1_phi1, q0, q1)[0]

    return along_theta


def _along_phi1(k: float, c2: float, s2: float, q0: float, q1: float):
    """Brent's objective along phi1 at a fixed theta, given as ``2 cos(theta/2)``, ``2 sin(theta/2)``."""
    value_at = _charlie_value

    def along_phi1(t: float) -> float:
        return -value_at(k, c2, s2, math.cos(t), 1.0 + math.sin(t), q0, q1)[0]

    return along_phi1


def _seesaw_round(alpha: float, starts: Sequence[tuple[float, float, float, float]]) -> list:
    """See-saw rounds from ``starts``, each ``(theta, phi1, q0, q1)``: refine
    ``(theta, phi1)`` against Charlie's overlaps (one lane each), then
    best-respond.  Returns per start ``(theta, phi0, phi1)``, the witness
    before, the overlaps of Charlie's new measurements, and the witness after."""
    out = []
    for before, theta, phi0, phi1 in _ascend(alpha, starts, 513):
        q0, q1, after = _reduced_best_response(theta, phi0, phi1)
        out.append(((theta, phi0, phi1), before, (q0, q1), after))
    return out


def _random_feasible_start(alpha: float, rng: np.random.Generator):
    k = 8.0 * alpha - 4.0
    for _ in range(256):
        theta = HALF_PI * rng.random()  # rng.uniform(0, HALF_PI), bit for bit
        phi1 = HALF_PI * rng.random()
        c2, s2 = 2.0 * math.cos(0.5 * theta), 2.0 * math.sin(0.5 * theta)
        if _charlie_value(k, c2, s2, math.cos(phi1), 1.0 + math.sin(phi1), 1.0, 1.0)[1] is not None:
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

    The restarts advance in waves, one round each per wave, until each has
    converged or run 200 rounds.  A round depends only on the level and on
    its key ``(theta, phi1, q0, q1)``, so a key already run is replayed and
    the wave's distinct new keys run as the lanes of one ascent.  A lane's
    floats do not depend on the other lanes, so every restart follows the
    trajectory it follows alone, and each distinct key runs exactly once.
    """
    cfg = OptimizerConfig() if cfg is None else cfg
    if not isinstance(cfg, OptimizerConfig):
        raise DomainError(f"cfg must be an OptimizerConfig or None, got {cfg!r}")
    alpha = witness_level("alpha", alpha, tol=1e-12)
    _, grid_theta, grid_phi1 = _grid_argmax(alpha, 64)
    starts = []  # per restart, the start (theta, phi1, q0, q1) of its next round
    for restart in range(SEESAW_RESTARTS):
        start, q = None, (1.0, 1.0)  # Charlie's x and z readouts
        if restart:  # restart 0 draws nothing, so it builds no generator
            rng = np.random.default_rng([cfg.rng_seed, restart])
            start = _random_feasible_start(alpha, rng)
            # The x and z components of projective_povm's unit axes.
            a0, a1 = random_unit_vector(rng), random_unit_vector(rng)
            q = (float(a0[0] / _norm(a0)), float(a1[2] / _norm(a1)))
        starts.append((*(start if start is not None else (grid_theta, grid_phi1)), *q))
    runs = [SeesawRun() for _ in starts]
    angles = [None] * len(starts)
    # Charlie enters a round only through q0 = cvec[0] and q1 = cvec[2], so
    # a round already run from the same start is replayed from this dict,
    # keyed by the exact bits of its floats.  It lives for this call only.
    rounds: dict = {}
    running = list(range(len(starts)))
    for _ in range(200):
        if not running:
            break
        keys = [tuple(map(float.hex, starts[i])) for i in running]
        new = {}
        for key, i in zip(keys, running):
            if key not in rounds:
                new.setdefault(key, starts[i])
        rounds.update(zip(new, _seesaw_round(alpha, list(new.values()))))
        still = []
        for key, i in zip(keys, running):
            angles[i], before, q, after = rounds[key]
            run = runs[i]
            run.charlie_steps.append((before, after))
            converged = after - run.final_wac < CONVERGENCE_EPSILON
            run.final_wac = after
            if not converged:
                starts[i] = (angles[i][0], angles[i][2], *q)
                still.append(i)
        running = still
    best = None
    for run, point in zip(runs, angles):
        if best is None or run.final_wac > best[0]:
            best = (run.final_wac, point)
    if not np.isfinite(best[0]):
        raise ConvergenceFailure(f"all restarts failed at alpha = {alpha!r}")
    # The winner's measurements come from the object path; the round equals its overlaps and witness.
    params = ReducedParameters(*best[1])
    partial = strategy_from_reduced(params)
    charlie, _ = charlie_best_response(partial.preparations, partial.instruments)
    strategy = Strategy(partial.preparations, partial.instruments, charlie)
    return SeesawResult(strategy, witness_pair(strategy), runs, params)


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
    # coordinates lie in [0, 16], so base 17 keeps the sort order, and the
    # nonzero bins of the key counts are the sorted distinct keys.
    keys = 17 * (2 * ab)[:, :, None, None] + ac[:, None, :, :]
    points = [divmod(int(k), 17) for k in np.flatnonzero(np.bincount(keys.ravel()))]
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


def _sandwich_max(effects: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``lambda_max[sqrt(E) op sqrt(E)]`` for each pair of two C-contiguous ``(n, 2, 2)`` stacks.

    The bits of ``max_eigenpair(root @ op @ root, tol=inf).value`` with
    ``root = matrix_sqrt_psd(E, tol=inf)``: both kernels run stacked in ``linalg``,
    and ``@`` makes one BLAS product per matrix.  :class:`DomainError` on a
    non-finite entry, as the scalar path raises."""
    roots = _sqrt_psd_rows(effects)
    return _max_eigvalue_rows(roots @ ops @ roots)


def sandwich_eigenvalue_sum_bound(povm, direction) -> BoundSample:
    """Check ``sum_b lambda_max[sqrt(M_b) (a.sigma) sqrt(M_b)] <= |a|``.

    Equality holds exactly when the direction is (anti)parallel to the
    measurement's Bloch axis, or the axis vanishes.  Raises
    :class:`InequalityViolation` if the bound fails beyond ``BOUND_SLACK``.
    """
    povm, a = _binary_povm(povm), _vector3(direction, "direction")
    rhs = _norm(a)
    if rhs == 0.0:
        return BoundSample(0.0, 0.0, True)
    lhs = _sum_bound_rows(povm.effects, a[None], np.array([rhs]))[0]
    sharp, overlap = povm.sharpness, abs(_dot(povm.cvec, a))
    aligned = sharp <= BOUND_SLACK or abs(overlap / (sharp * rhs) - 1.0) <= BOUND_SLACK
    return BoundSample(float(lhs), rhs, aligned)


def _binary_povm(povm) -> BinaryPovm:
    """``povm``, or its effect pair validated; :class:`InvalidPovm` if it is neither."""
    try:
        return povm if isinstance(povm, BinaryPovm) else validate_povm(povm[0], povm[1])
    except Exception as exc:
        raise InvalidPovm(str(exc)) from exc


def _sum_bound_rows(effects: np.ndarray, a: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """The eigenvalue sum of :func:`sandwich_eigenvalue_sum_bound` per row ``i``: effects
    ``effects[2i : 2i + 2]``, direction ``a[i]``, ``norm[i] = |a[i]|``, sum 0 where ``|a| = 0``.
    Raises :class:`InequalityViolation` at the first row above ``|a| + BOUND_SLACK``."""
    pairs = _sandwich_max(effects, np.repeat(_bloch_compose_rows(0.0, a), 2, axis=0))
    lhs = np.where(norm == 0.0, 0.0, 0.0 + pairs[0::2] + pairs[1::2])
    i = _first(lhs > norm + BOUND_SLACK)
    if i < len(lhs):
        raise InequalityViolation(
            f"eigenvalue sum {float(lhs[i])!r} exceeds |a| = {float(norm[i])!r}"
        )
    return lhs


# Largest per-axis resolution of ``trig_grid_max``: a slab holds at most
# max(32768, resolution**2) float64 values, about 100 MB at this size.
TRIG_GRID_MAX = 3500


def trig_grid_max(resolution: int) -> float:
    """Maximum of the trigonometric bound expression on a full-domain grid.

    The ``resolution**3`` grid is scanned in slabs of whole theta rows, about
    32k cells each and never less than one row, so memory grows with
    ``resolution**2``; ``resolution`` must lie in ``[1, TRIG_GRID_MAX]``.
    """
    resolution = require_integer(resolution, "grid", 1, TRIG_GRID_MAX)
    theta = np.linspace(0.0, np.pi, resolution)[:, None, None]
    phi0 = np.linspace(0.0, HALF_PI, resolution)[:, None]
    phi1 = np.linspace(0.0, HALF_PI, resolution)[None, :]
    spread = np.cos(phi0) ** 2 - np.cos(phi1) ** 2
    overlap = np.cos(phi0 - phi1)
    c, s, rows = np.cos(theta), np.sin(theta), max(1, 32768 // resolution**2)
    return float(max((c[i : i + rows] * spread + s[i : i + rows] * overlap).max()
                     for i in range(0, resolution, rows)))


def _suite_draws(rng: np.random.Generator, samples: int, allow_offset: bool):
    """Stacks ``(c0, c, a)``: per sample, bit for bit, the draws of ``random_povm(rng,
    allow_offset)``, then with an offset ``rng.standard_normal(3) * (2.0 * rng.random())``,
    else ``random_unit_vector(rng)``.  The loop only calls the generator, in that order;
    the arithmetic runs on the stacks with the float operations of the scalar draws."""
    random, normal = rng.random, rng.standard_normal
    eta, offset, scale = [], [], []
    normals = np.empty((2 * samples, 3))  # per sample: the axis, then the direction
    rows = iter(normals)
    for _ in range(samples):
        eta.append(random())
        if allow_offset:
            offset.append(random())
        normal(out=next(rows))
        normal(out=next(rows))
        if allow_offset:
            scale.append(random())
    eta, v, w = np.array(eta), normals[0::2], normals[1::2]
    c = eta[:, None] * (v / np.sqrt(_dots(v, v))[:, None])
    if allow_offset:
        c0 = (-1.0 + 2.0 * np.array(offset)) * (1.0 - eta)
        return c0, c, w * (2.0 * np.array(scale))[:, None]
    return np.zeros(samples), c, w / np.sqrt(_dots(w, w))[:, None]


def _screen(c0: np.ndarray, c: np.ndarray, a: np.ndarray):
    """The ``(2n, 2, 2)`` stack of effects ``(E0, E1)`` as ``from_observable`` builds them,
    ``|c|``, ``|a|`` and the index of the first draw :func:`_replay` rejects (``n`` if none)."""
    eta, norm = np.sqrt(_dots(c, c)), np.sqrt(_dots(a, a))
    with np.errstate(invalid="ignore"):  # rejected draws may be inf or NaN
        bad = ~np.isfinite(c0 + eta) | ~(np.abs(a) <= MAX_ENTRY).all(axis=1)
        bad |= (eta - 1.0 > HERM_TOL) | (np.abs(c0) - (1.0 - eta) > HERM_TOL)
        e0 = _bloch_compose_rows(0.5 * (1.0 + c0), 0.5 * c)
        e1 = _bloch_compose_rows(0.5 * (1.0 - c0), -0.5 * c)
    return np.stack((e0, e1), axis=1).reshape(-1, 2, 2), eta, norm, _first(bad)


def _replay(c0: np.ndarray, c: np.ndarray, a: np.ndarray, i: int) -> None:
    """Raise what ``from_observable`` (offset a Python float) or ``_vector3`` raises on draw ``i``."""
    BinaryPovm.from_observable(float(c0[i]), c[i])
    _vector3(a[i], "direction")
    raise RuntimeError("a batched check failed where the constructors passed")


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry, or the length if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


# Samples per batch of a suite.  A batch holds about 1.5 kB per sample, so
# memory stays flat whatever ``samples`` is; batches change no bit, because
# the draws run in order and each sample is computed on its own.
_SUITE_BATCH = 4096


def _bound_suite(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample ``(lhs, rhs)`` of :func:`sandwich_eigenvalue_sum_bound` on random draws.

    Sample by sample the draws are those of ``random_povm(rng)`` and then
    ``rng.normal(size=3) * rng.uniform(0, 2)``, bit for bit.  The first
    failing sample in draw order raises the scalar path's error: a violation
    from :func:`_sum_bound_rows`, a rejected draw from :func:`_replay`.
    """
    c0, c, a = _suite_draws(rng, samples, True)
    effects, _, rhs, n = _screen(c0, c, a)
    lhs = _sum_bound_rows(effects[: 2 * n], a[:n], rhs[:n])
    if n < samples:
        _replay(c0, c, a, n)
    return lhs, rhs


def _eigen_suite(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample direct and closed-form sandwich eigenvalues, shape ``(samples, 2)`` each.

    Sample by sample the draws are those of ``random_povm(rng, allow_offset=False)`` and
    then ``random_unit_vector(rng)``.  Column ``b`` holds outcome ``b``: the eigensolve of
    :func:`_sandwich_max` and :func:`sandwich_eigenvalue_closed_form`.  The first rejected
    draw is replayed as in :func:`_bound_suite`.
    """
    c0, c, u = _suite_draws(rng, samples, False)
    effects, eta, norm, n = _screen(c0, c, u)
    if n < samples:
        _replay(c0, c, u, n)
    direct = _sandwich_max(effects, np.repeat(_bloch_compose_rows(0.0, u), 2, axis=0))
    overlap = _dots(c, u)
    closed = np.stack([_closed_form(c0, eta, overlap, norm, b) for b in (0, 1)], axis=1)
    return direct.reshape(samples, 2), closed


def inequality_report(samples: int, grid: int, seed: int) -> dict:
    """Run the three sampling suites; raises on any violation.

    Returns the maximal residuals: eigenvalue-sum bound margin over random
    measurement/direction draws, the trig-expression grid maximum, and the
    worst disagreement between the closed-form sandwich eigenvalue and a
    direct eigensolve.
    """
    samples, seed = require_integer(samples, "samples", 1), require_integer(seed, "seed", 0)
    trig_max = trig_grid_max(grid)
    if trig_max > 1.0 + 1e-12:
        raise InequalityViolation(f"trig grid maximum {trig_max!r} exceeds 1")

    starts = range(0, samples, _SUITE_BATCH)  # a range: flat memory for any count
    rng = np.random.default_rng([seed, 11])
    suite = (_bound_suite(rng, min(_SUITE_BATCH, samples - start)) for start in starts)
    bound_margin = max((lhs - rhs).max() for lhs, rhs in suite)

    rng = np.random.default_rng([seed, 13])
    suite = (_eigen_suite(rng, min(_SUITE_BATCH, samples - start)) for start in starts)
    eigen_residual = max(np.abs(direct - closed).max() for direct, closed in suite)
    if eigen_residual > 1e-10:
        raise InequalityViolation(
            f"closed-form eigenvalue residual {float(eigen_residual)!r} exceeds 1e-10"
        )

    return {
        "bound_margin_max": float(bound_margin),
        "trig_max": trig_max,
        "eigen_residual_max": float(eigen_residual),
    }


def sandwich_eigenvalue_closed_form(povm, direction, outcome: int) -> float:
    """Closed-form ``lambda_max[sqrt(M_b) (a.sigma) sqrt(M_b)]``.

    With sharpness ``eta``, offset ``c0`` and ``cos(beta)`` the unit-vector
    overlap with the measurement axis:

    ``|a|/2 * ((-1)^b eta cos(beta)
               + sqrt((1 + (-1)^b c0)^2 - eta^2 (1 - cos(beta)^2)))``

    The odd first term cancels in the sum over outcomes, leaving the
    square-root sum used by the trade-off bound.
    """
    povm, a = _binary_povm(povm), _vector3(direction, "direction")
    norm, outcome = _norm(a), require_integer(outcome, "outcome", 0, 1)
    row = np.array([[povm.c0], [povm.sharpness], [_dot(povm.cvec, a)], [norm]])
    return float(_closed_form(*row, outcome)[0])


def _closed_form(c0, eta, overlap, norm, outcome: int) -> np.ndarray:
    """:func:`sandwich_eigenvalue_closed_form` on ``(n,)`` arrays (``overlap = c . a``, ``norm = |a|``),
    each entry by the scalar float operations: squares by Python ``x ** 2`` (libm's ``pow``, not
    a multiply) and clamps by selects that keep ``-0.0`` on ties, as ``max``/``min`` do."""
    sign = -1.0 if outcome else 1.0
    with np.errstate(all="ignore"):  # rows the scalar formula skips (eta or |a| near 0)
        cos_beta = np.where(eta > 1e-15, overlap / (eta * norm), 0.0)
        cos_beta = np.where(-1.0 > cos_beta, -1.0, np.where(cos_beta > 1.0, 1.0, cos_beta))
        squares = np.array([[x**2 for x in v.tolist()] for v in (1.0 + sign * c0, cos_beta)])
        radicand = squares[0] - eta * eta * (1.0 - squares[1])
        radicand = np.where(0.0 > radicand, 0.0, radicand)
        return np.where(norm == 0.0, 0.0, 0.5 * norm * (sign * eta * cos_beta + np.sqrt(radicand)))
