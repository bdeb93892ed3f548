"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Runtime limits are asserted on warmed-up timings.
"""

import time

import numpy as np

from seqrac import (
    OptimizerConfig,
    Strategy,
    WitnessPair,
    boundary_wac,
    canonical_strategy,
    canonical_witness_pair,
    certify_interval,
    classical_bruteforce,
    conjugate_strategy,
    in_quantum_set,
    seesaw,
    selftest_report,
    sharpness_lower,
    sharpness_upper,
    simulate_chain,
    trace_boundary,
    witness_ab,
    witness_pair,
)
from seqrac.analytics import W_AB_MAX, round_reported
from seqrac.linalg import BinaryPovm, projective_povm, state_from_bloch
from seqrac.optimizer import inequality_report
from seqrac.sampling import random_strategy, random_su2
from seqrac.scenario import BinaryInstrument
from seqrac.sequence import ChainConfig, party_witness_closed_form
from seqrac.strategies import VisibilityTriple, apply_visibility

SQRT2 = np.sqrt(2.0)


def best_time(fn, repeat=15):
    fn()  # warm-up
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def report(k, message):
    print(f"ACCEPTANCE {k:2d} PASS: {message}")


def test_criterion_01_optimal_qrac_value():
    strategy = canonical_strategy(1.0)
    value = witness_ab(strategy)
    assert abs(value - (2 + SQRT2) / 4) <= 1e-12
    elapsed = best_time(lambda: witness_ab(strategy))
    assert elapsed < 1e-3
    report(1, f"witness_ab(canonical(1)) = {value:.15f} in {elapsed * 1e6:.0f} us")


def test_criterion_02_parametric_strategy_law():
    etas = np.linspace(0.0, 1.0, 101)

    def sweep():
        worst = 0.0
        for eta in etas:
            pair = witness_pair(canonical_strategy(eta))
            closed = canonical_witness_pair(eta)
            worst = max(worst, abs(pair.w_ab - closed.w_ab), abs(pair.w_ac - closed.w_ac))
        return worst

    worst = sweep()
    elapsed = best_time(sweep, repeat=3)
    assert worst <= 1e-12
    assert elapsed < 0.1
    report(2, f"101 sharpness levels, max deviation {worst:.2e} in {elapsed:.3f} s")


def test_criterion_03_boundary_trace():
    alphas = np.linspace(0.5, W_AB_MAX, 21)
    t0 = time.perf_counter()
    points = trace_boundary(alphas.tolist(), OptimizerConfig())
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for point in points:
        worst = max(worst, abs(point.wac - boundary_wac(point.alpha)))
        assert abs(point.params.theta - np.pi / 2) <= 1e-4
        assert abs(point.params.phi0 - point.params.phi1) <= 1e-4
    assert worst <= 1e-6
    assert elapsed < 60.0
    report(3, f"21 levels, max gap {worst:.2e}, argmax at theta=pi/2, in {elapsed:.2f} s")


def test_criterion_04_seesaw_attainability():
    cfg = OptimizerConfig()
    t0 = time.perf_counter()
    gaps = []
    for alpha in (0.55, 0.65, 0.75, 0.85):
        result = seesaw(alpha, cfg)
        result.strategy.validate()
        bound = boundary_wac(alpha)
        assert abs(result.pair.w_ab - alpha) <= 1e-8
        assert result.pair.w_ac >= bound - 1e-3
        assert result.pair.w_ac <= bound + 1e-7
        gaps.append(bound - result.pair.w_ac)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, f"four levels attained, worst gap {max(gaps):.2e}, in {elapsed:.2f} s")


def test_criterion_05_classical_bound():
    t0 = time.perf_counter()
    result = classical_bruteforce()
    elapsed = time.perf_counter() - t0
    assert result.max_w_ab == 0.75
    assert result.max_w_ac == 0.75
    assert (0.75, 0.75) in [(p.w_ab, p.w_ac) for p in result.extremes]
    assert elapsed < 5.0
    report(5, f"65536 strategies, maxima exactly 3/4, in {elapsed:.2f} s")


def test_criterion_06_noise_example():
    visibility = VisibilityTriple(0.95, 0.90, 0.95)

    def pipeline():
        noisy = apply_visibility(canonical_strategy(1 / SQRT2), visibility)
        pair = witness_pair(noisy)
        rounded = WitnessPair(round_reported(pair.w_ab), round_reported(pair.w_ac))
        return rounded, certify_interval(rounded)

    rounded, interval = pipeline()
    assert rounded == (0.7138, 0.7826)
    assert interval.rounded() == (0.6047, 0.8010)
    elapsed = best_time(lambda: pipeline())
    assert elapsed < 1e-3
    lo, hi = interval.rounded()
    report(
        6,
        f"pair ({rounded.w_ab:.4f}, {rounded.w_ac:.4f}) certified to "
        f"[{lo:.4f}, {hi:.4f}] in {elapsed * 1e6:.0f} us",
    )


def test_criterion_07_sharpness_bound_tightness():
    alphas = np.linspace(0.5, W_AB_MAX, 101)
    t0 = time.perf_counter()
    worst = max(
        abs(sharpness_upper(boundary_wac(a)) - sharpness_lower(a)) for a in alphas
    )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 0.1
    report(7, f"bounds coincide on the boundary, max gap {worst:.2e}, in {elapsed:.3f} s")


def test_criterion_08_operator_inequalities():
    t0 = time.perf_counter()
    residuals = inequality_report(samples=10_000, grid=100, seed=20250809)
    elapsed = time.perf_counter() - t0
    assert residuals["bound_margin_max"] <= 1e-9
    assert residuals["trig_max"] <= 1.0 + 1e-12
    assert residuals["eigen_residual_max"] <= 1e-10
    assert elapsed < 60.0
    report(
        8,
        "margins: bound {bound_margin_max:.2e}, trig {trig_max:.15f}, "
        "eigen {eigen_residual_max:.2e}".format(**residuals) + f", in {elapsed:.1f} s",
    )


def test_criterion_09_sequence_law():
    t0 = time.perf_counter()
    rows = simulate_chain(ChainConfig(10))
    elapsed = time.perf_counter() - t0
    for row in rows:
        assert abs(row.witness - party_witness_closed_form(row.party)) <= 1e-12
        assert abs(row.entering_radius - 2.0 ** (1 - row.party)) <= 1e-12
    assert elapsed < 1.0
    report(9, f"10 parties match the halving law to 1e-12, in {elapsed:.3f} s")


def _perturbed_variants(base: Strategy):
    states = list(base.preparations)
    states[0] = state_from_bloch(0.99 * states[0].bloch)
    yield "preparation purity", Strategy(tuple(states), base.instruments, base.measurements)

    weaker = BinaryInstrument.luders(
        BinaryPovm.from_observable(0.0, 0.99 * base.instruments[0].povm.cvec)
    )
    yield "instrument sharpness", Strategy(
        base.preparations, (weaker, base.instruments[1]), base.measurements
    )

    biased = BinaryInstrument.luders(
        BinaryPovm.from_observable(0.01, base.instruments[0].povm.cvec)
    )
    yield "instrument offset", Strategy(
        base.preparations, (biased, base.instruments[1]), base.measurements
    )

    angle = 0.01
    twist = np.array(
        [[np.cos(angle / 2), -np.sin(angle / 2)], [np.sin(angle / 2), np.cos(angle / 2)]],
        dtype=complex,
    )
    k0, k1 = base.instruments[0].kraus
    yield "instrument unitary", Strategy(
        base.preparations,
        (BinaryInstrument.from_kraus(twist @ k0, k1), base.instruments[1]),
        base.measurements,
    )

    tilted = projective_povm([np.cos(0.01), 0.0, np.sin(0.01)])
    yield "measurement axis", Strategy(
        base.preparations, base.instruments, (tilted, base.measurements[1])
    )


def test_criterion_10_selftest_characterization():
    rng = np.random.default_rng(20250809)
    t0 = time.perf_counter()
    for eta in (0.3, 1 / SQRT2, 0.9, 1.0):
        base = canonical_strategy(eta)
        assert selftest_report(base).max_defect() <= 1e-9
        rotated = conjugate_strategy(base, random_su2(rng))
        assert selftest_report(rotated).max_defect() <= 1e-9
    fired = []
    for name, broken in _perturbed_variants(canonical_strategy(0.8)):
        defect = selftest_report(broken).max_defect()
        assert defect > 1e-9, name
        fired.append((name, defect))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    worst = min(d for _, d in fired)
    report(10, f"canonical clean, 5 perturbations fire (min defect {worst:.1e}), in {elapsed:.3f} s")


def test_criterion_11_quantum_set_soundness():
    rng = np.random.default_rng(20250809)
    t0 = time.perf_counter()
    for _ in range(100_000):
        pair = witness_pair(random_strategy(rng))
        assert in_quantum_set(pair, tol=1e-7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(11, f"100000 random strategies inside the quantum set, in {elapsed:.1f} s")
