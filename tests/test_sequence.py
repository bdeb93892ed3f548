"""Chains of sequential measuring parties."""

import numpy as np
import pytest

from seqrac import (
    canonical_witness_pair,
    double_violation_point,
    party_witness_closed_form,
    sequence,
    simulate_chain,
    witness_pair,
)
from seqrac.errors import DomainError
from seqrac.scenario import average_instrument_channel, rac_success
from seqrac.sequence import CHAIN_PARTIES_MAX, ChainConfig
from seqrac.strategies import axis_instruments, canonical_strategy, square_preparations

SQRT2 = np.sqrt(2.0)


class TestClosedForm:
    def test_first_party_is_optimal(self):
        assert party_witness_closed_form(1) == pytest.approx((2 + SQRT2) / 4, abs=1e-15)

    def test_second_party(self):
        assert party_witness_closed_form(2) == pytest.approx((4 + SQRT2) / 8, abs=1e-15)

    def test_limit_is_coin_flip(self):
        assert party_witness_closed_form(60) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_bad_index(self):
        for k in (0, -3, np.nan, np.inf, 2.5, 2.0, "3"):
            with pytest.raises(DomainError):
                party_witness_closed_form(k)
        assert party_witness_closed_form(np.int64(2)) == party_witness_closed_form(2)


class TestSimulateChain:
    def test_three_sharp_parties(self):
        rows = simulate_chain(ChainConfig(3))
        witnesses = [r.witness for r in rows]
        radii = [r.entering_radius for r in rows]
        np.testing.assert_allclose(
            witnesses, [0.853553, 0.676777, 0.588388], atol=5e-7
        )
        np.testing.assert_allclose(radii, [1.0, 0.5, 0.25], atol=1e-12)

    def test_matches_closed_form_to_depth_ten(self):
        rows = simulate_chain(ChainConfig(10))
        for row in rows:
            assert row.witness == pytest.approx(
                party_witness_closed_form(row.party), abs=1e-12
            )
            assert row.entering_radius == pytest.approx(
                2.0 ** (1 - row.party), abs=1e-12
            )

    def test_single_party(self):
        rows = simulate_chain(ChainConfig(1))
        assert rows[0].witness == pytest.approx((2 + SQRT2) / 4, abs=1e-12)

    def test_sharp_chain_strictly_decreasing(self):
        rows = simulate_chain(ChainConfig(8))
        witnesses = [r.witness for r in rows]
        assert all(a > b for a, b in zip(witnesses, witnesses[1:]))
        assert all(w > 0.5 for w in witnesses)

    def test_idle_party_scores_half_and_preserves_radius(self):
        rows = simulate_chain(ChainConfig(3, (1.0, 0.0, 1.0)))
        assert rows[1].witness == pytest.approx(0.5, abs=1e-12)
        assert rows[2].entering_radius == pytest.approx(
            rows[1].entering_radius, abs=1e-12
        )

    def test_radius_recursion_for_generic_profile(self):
        profile = (1.0, 0.6, 0.3, 0.85)
        rows = simulate_chain(ChainConfig(4, profile))
        for k in range(1, 4):
            eta = profile[k - 1]
            factor = (1 + np.sqrt(1 - eta**2)) / 2
            assert rows[k].entering_radius == pytest.approx(
                rows[k - 1].entering_radius * factor, abs=1e-12
            )

    def test_unsharp_party_witness_matches_closed_law(self):
        profile = (0.9, 0.4)
        rows = simulate_chain(ChainConfig(2, profile))
        radius = 1.0
        for row, eta in zip(rows, profile):
            assert row.witness == pytest.approx(
                0.5 * (1 + radius * eta / SQRT2), abs=1e-12
            )
            radius *= (1 + np.sqrt(1 - eta**2)) / 2

    def test_runs_of_equal_sharpness_equal_a_rebuild_per_party(self, monkeypatch):
        # one instrument build per run of equal float.hex: 0.0 and -0.0 are separate runs
        profile = (1.0, 1.0, 0.0, -0.0, -0.0, 0.8, 0.8, 1.0)
        ensemble, rebuilt = square_preparations(), []
        for eta in profile:
            radius = float(np.linalg.norm(ensemble[0].bloch))
            instruments = axis_instruments(eta, eta)
            witness = rac_success(ensemble, tuple(i.povm for i in instruments))
            rebuilt.append((float(witness).hex(), radius.hex()))
            ensemble = average_instrument_channel(ensemble, instruments)
        builds = []

        def counted(eta_x, eta_z):
            builds.append(eta_x)
            return axis_instruments(eta_x, eta_z)

        monkeypatch.setattr(sequence, "axis_instruments", counted)
        rows = simulate_chain(ChainConfig(len(profile), profile))
        assert [(r.witness.hex(), r.entering_radius.hex()) for r in rows] == rebuilt
        assert [eta.hex() for eta in builds] == [v.hex() for v in (1.0, 0.0, -0.0, 0.8, 1.0)]

    def test_rejects_bad_profile(self):
        for args in (
            (2, (1.0,)),
            (1, (1.5,)),
            (0,),
            (2.5,),  # not an integer
            (np.nan,),
            (CHAIN_PARTIES_MAX + 1,),
            (10**12,),
            (2, (1.0, "abc")),  # an entry that is not a number
            (2, (1.0, None)),
            (2, 1.0),  # a profile that is not a sequence
        ):
            with pytest.raises(DomainError):
                ChainConfig(*args)


class TestDoubleViolation:
    def test_point_value(self):
        eta, pair = double_violation_point()
        assert eta == 0.8
        expected = (5 + 2 * SQRT2) / 10
        assert pair.w_ab == pytest.approx(expected, abs=1e-12)
        assert pair.w_ac == pytest.approx(expected, abs=1e-12)
        assert pair.w_ab > 0.75 and pair.w_ac > 0.75

    def test_matches_full_simulation(self):
        eta, pair = double_violation_point()
        direct = witness_pair(canonical_strategy(eta))
        assert direct.w_ab == pytest.approx(pair.w_ab, abs=1e-12)
        assert direct.w_ac == pytest.approx(pair.w_ac, abs=1e-12)

    def test_closed_form_consistency(self):
        eta, pair = double_violation_point()
        closed = canonical_witness_pair(eta)
        assert closed.w_ab == pytest.approx(pair.w_ab, abs=1e-15)
