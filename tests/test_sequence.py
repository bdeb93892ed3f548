"""Chains of sequential measuring parties."""

import numpy as np
import pytest

from seqrac import (
    boundary_wac,
    canonical_witness_pair,
    party_witness_closed_form,
    sequence,
    simulate_chain,
    witness_pair,
)
from seqrac.cli import main
from seqrac.errors import DomainError
from seqrac.linalg import _norm
from seqrac.scenario import average_instrument_channel, rac_success
from seqrac.sequence import CHAIN_PARTIES_MAX, ChainConfig, ChainStep
from seqrac.strategies import axis_instruments, canonical_strategy, square_preparations

SQRT2 = np.sqrt(2.0)


class TestClosedForm:
    def test_first_party_is_optimal(self):
        assert party_witness_closed_form(1) == pytest.approx((2 + SQRT2) / 4, abs=1e-15)

    def test_second_party(self):
        assert party_witness_closed_form(2) == pytest.approx((4 + SQRT2) / 8, abs=1e-15)

    def test_limit_is_coin_flip(self):
        assert party_witness_closed_form(60) == pytest.approx(0.5, abs=1e-15)

    def test_bits_of_the_numpy_formula(self):
        # The law on Python floats takes the float operations of its numpy scalar form.
        for k in list(range(1, 1200)) + [CHAIN_PARTIES_MAX]:
            assert party_witness_closed_form(k).hex() == float(0.5 * (1.0 + np.sqrt(2.0) * 2.0**-k)).hex()

    def test_rejects_bad_index(self):
        for k in (0, -3, np.nan, np.inf, 2.5, 2.0, "3"):
            with pytest.raises(DomainError):
                party_witness_closed_form(k)
        assert party_witness_closed_form(np.int64(2)) == party_witness_closed_form(2)


def frozen_simulate_chain(profile) -> list:
    """``simulate_chain`` as it was: every party runs the channel, one build per run of equal sharpness."""
    ensemble, rows, built = square_preparations(), [], None
    for k, eta in enumerate(profile, start=1):
        radius = _norm(ensemble[0].bloch)
        if eta.hex() != built:
            built, instruments = eta.hex(), axis_instruments(eta, eta)
        witness = rac_success(ensemble, (instruments[0].povm, instruments[1].povm))
        rows.append(ChainStep(k, float(witness), radius))
        ensemble = average_instrument_channel(ensemble, instruments)
    return rows


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

    @pytest.mark.parametrize("profile", [(1.0, 0.0, 1.0), (0.0,) * 50], ids=["one-idle", "50-idle"])
    def test_idle_party_scores_half_and_preserves_radius(self, profile):
        # an idle party's channel moves the last bits: party 50 of the idle chain scores
        # 0.4999999999999955 and receives the radius 0.9999999999999916
        rows = simulate_chain(ChainConfig(len(profile), profile))
        for k in (k for k, eta in enumerate(profile) if eta == 0.0):
            assert rows[k].witness == pytest.approx(0.5, abs=1e-12)
            assert rows[-1].entering_radius == pytest.approx(rows[k].entering_radius, abs=1e-12)

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

    # The most channel runs each chain takes: a sharp chain is fixed from party 55 on, an
    # unsharp one later; an idle party's channel moves the last bits, so 50 idle parties run 50.
    @pytest.mark.parametrize(
        "profile, channels",
        [
            ((1.0,) * 2000, 60),
            ((0.0,) * 50, 50),
            ((0.5,) * 900, 600),
            ((1.0,) * 80 + (0.0,) * 10 + (-0.0,) * 10 + (1.0,) * 30 + (0.7, 0.7, 1.0) * 20 + (0.3,) * 600, 150),
        ],
        ids=["sharp", "idle", "unsharp", "changes_after_the_fixed_point"],
    )
    def test_fixed_point_skip_matches_a_channel_per_party(self, monkeypatch, profile, channels):
        expected = frozen_simulate_chain(profile)
        calls = []

        def counted(ensemble, instruments):
            calls.append(None)
            return average_instrument_channel(ensemble, instruments)

        monkeypatch.setattr(sequence, "average_instrument_channel", counted)
        rows = simulate_chain(ChainConfig(len(profile), profile))
        assert [(r.party, r.witness.hex(), r.entering_radius.hex()) for r in rows] == [
            (r.party, r.witness.hex(), r.entering_radius.hex()) for r in expected
        ]
        assert len(calls) <= channels

    def test_cli_rows_match_a_format_per_row(self, tmp_path):
        # A chain at its fixed point repeats its row's text; every row is formatted as it was.
        profile = (1.0,) * 300 + (0.0,) * 5 + (-0.0,) * 5 + (1.0,) * 10
        out = tmp_path / "chain.csv"
        args = ["sequence", "--parties", str(len(profile)), "--eta-profile", ",".join(map(str, profile))]
        assert main([*args, "--out", str(out)]) == 0
        lines = ["k,witness,radius,closed_form,diff"]
        for step in frozen_simulate_chain(profile):
            closed = party_witness_closed_form(step.party)
            values = (step.witness, step.entering_radius, closed, step.witness - closed)
            lines.append(",".join([str(step.party), *(format(v, ".17g") for v in values)]))
        assert out.read_text() == "\n".join(lines) + "\n"

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
        pair = canonical_witness_pair(0.8)
        expected = (5 + 2 * SQRT2) / 10
        assert pair.w_ab == pytest.approx(expected, abs=1e-12)
        assert pair.w_ac == pytest.approx(expected, abs=1e-12)
        assert pair.w_ab > 0.75 and pair.w_ac > 0.75

    def test_matches_full_simulation(self):
        pair = canonical_witness_pair(0.8)
        direct = witness_pair(canonical_strategy(0.8))
        assert direct.w_ab == pytest.approx(pair.w_ab, abs=1e-12)
        assert direct.w_ac == pytest.approx(pair.w_ac, abs=1e-12)

    def test_closed_form_consistency(self):
        # the double violation lies on the optimal trade-off boundary
        pair = canonical_witness_pair(0.8)
        assert boundary_wac(pair.w_ab) == pytest.approx(pair.w_ac, abs=1e-15)
