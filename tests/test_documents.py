"""Strategy document parsing, canonical serialization, error paths."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrac import canonical_strategy, canonical_witness_pair, witness_pair
from seqrac.documents import (
    document_text,
    parse_strategy_document,
    read_strategy_file,
    write_strategy_file,
)
from seqrac.errors import DocumentError, DocumentInvariantError
from seqrac.sampling import random_strategy


def canonical_doc() -> dict:
    return json.loads(document_text(canonical_strategy(0.75)))


class TestRoundTrip:
    def test_write_parse_write_is_identity(self, tmp_path, rng):
        for strategy in (
            canonical_strategy(1.0),
            canonical_strategy(0.0),
            canonical_strategy(1 / np.sqrt(2)),
            random_strategy(rng),
        ):
            path = tmp_path / "strategy.json"
            write_strategy_file(strategy, path)
            first = path.read_text()
            reparsed = read_strategy_file(path)
            assert document_text(reparsed) == first

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.booleans(), st.floats(0.0, 1.0))
    def test_write_read_write_keeps_the_bytes(self, seed, luders, eta):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "strategy.json"
            for strategy in (
                random_strategy(np.random.default_rng(seed), luders),
                canonical_strategy(eta),
            ):
                write_strategy_file(strategy, path)
                first = path.read_bytes()
                write_strategy_file(read_strategy_file(path), path)
                assert path.read_bytes() == first

    def test_document_is_valid_json(self):
        doc = canonical_doc()
        assert doc["schema_version"] == 1
        assert len(doc["preparations"]) == 4

    def test_witnesses_survive_round_trip(self, tmp_path, rng):
        strategy = random_strategy(rng)
        path = tmp_path / "s.json"
        write_strategy_file(strategy, path)
        before = witness_pair(strategy)
        after = witness_pair(read_strategy_file(path))
        assert after.w_ab == pytest.approx(before.w_ab, abs=1e-15)
        assert after.w_ac == pytest.approx(before.w_ac, abs=1e-15)


class TestParsing:
    def test_bloch_only_preparations(self):
        doc = canonical_doc()
        for entry in doc["preparations"]:
            del entry["matrix"]
        strategy = parse_strategy_document(doc)
        expected = canonical_witness_pair(0.75)
        assert witness_pair(strategy).w_ab == pytest.approx(expected.w_ab, abs=1e-12)

    def test_matrix_form_parses_exactly(self):
        doc = canonical_doc()
        strategy = parse_strategy_document(doc)
        expected = canonical_witness_pair(0.75)
        assert witness_pair(strategy).w_ab == pytest.approx(expected.w_ab, abs=1e-12)

    def test_matrix_only_preparations(self):
        doc = canonical_doc()
        for entry in doc["preparations"]:
            del entry["bloch"]
        strategy = parse_strategy_document(doc)
        expected = canonical_witness_pair(0.75)
        assert witness_pair(strategy).w_ac == pytest.approx(expected.w_ac, abs=1e-12)

    def test_disagreeing_views_rejected(self):
        doc = canonical_doc()
        doc["preparations"][2]["bloch"] = [0.0, 0.0, 0.5]
        with pytest.raises(DocumentInvariantError, match=r"preparations\[2\]"):
            parse_strategy_document(doc)

    def test_malformed_kraus_entry_path(self):
        doc = canonical_doc()
        doc["instruments"][0]["kraus"][1] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(DocumentError, match=r"instruments\[0\]\.kraus\[1\]"):
            parse_strategy_document(doc)

    def test_non_numeric_entry_path(self):
        doc = canonical_doc()
        doc["preparations"][0]["bloch"][1] = "zero"
        with pytest.raises(DocumentError, match=r"preparations\[0\]\.bloch\[1\]"):
            parse_strategy_document(doc)
        # Integers beyond the float range, in a Bloch entry and a matrix entry.
        doc = canonical_doc()
        doc["preparations"][1]["bloch"][2] = 10**400
        with pytest.raises(DocumentError, match=r"preparations\[1\]\.bloch\[2\]"):
            parse_strategy_document(doc)
        doc = canonical_doc()
        doc["instruments"][0]["kraus"][1][0][1][0] = -(10**400)
        with pytest.raises(DocumentError, match=r"instruments\[0\]\.kraus\[1\]\[0\]\[1\]"):
            parse_strategy_document(doc)

    @pytest.mark.parametrize("raw, message", [
        ("true", "expected a number, got True"),
        ("false", "expected a number, got False"),
        ("NaN", "non-finite number nan"),
        ("Infinity", "non-finite number inf"),
        ("-Infinity", "non-finite number -inf"),
        ("1e400", "non-finite number inf"),
        ("1" + "0" * 400, "integer out of the float range"),
    ])
    def test_entry_messages(self, raw, message):
        # JSON text, as a file holds it: json reads NaN and Infinity as floats.
        for key, path in (("bloch", "preparations[3].bloch[0]"),
                          ("matrix", "preparations[3].matrix[1][0]")):
            doc = canonical_doc()
            if key == "bloch":
                doc["preparations"][3]["bloch"][0] = "@"
            else:
                doc["preparations"][3]["matrix"][1][0][0] = "@"
            doc = json.loads(json.dumps(doc).replace('"@"', raw))
            with pytest.raises(DocumentError) as info:
                parse_strategy_document(doc)
            assert info.value.path == path
            assert str(info.value) == f"{path}: {message}"

    def test_incomplete_instrument_flagged(self):
        doc = canonical_doc()
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc["instruments"][1]["kraus"][0] = zero
        with pytest.raises(DocumentInvariantError, match=r"instruments\[1\]"):
            parse_strategy_document(doc)

    def test_bad_measurement_flagged(self):
        doc = canonical_doc()
        doc["measurements"][0]["effects"][0] = [
            [[2.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [2.0, 0.0]],
        ]
        with pytest.raises(DocumentInvariantError, match=r"measurements\[0\]"):
            parse_strategy_document(doc)

    def test_out_of_ball_bloch_flagged(self):
        doc = canonical_doc()
        del doc["preparations"][0]["matrix"]
        doc["preparations"][0]["bloch"] = [0.0, 0.0, 2.0]
        with pytest.raises(DocumentInvariantError, match=r"preparations\[0\]"):
            parse_strategy_document(doc)

    def test_unsupported_schema_version(self):
        for version in (9, True, 1.0):  # true and 1.0 equal 1 but are not an int
            doc = canonical_doc()
            doc["schema_version"] = version
            with pytest.raises(DocumentError, match="schema_version"):
                parse_strategy_document(doc)

    def test_wrong_preparation_count(self):
        doc = canonical_doc()
        doc["preparations"] = doc["preparations"][:3]
        with pytest.raises(DocumentError, match="preparations"):
            parse_strategy_document(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        for raw in (
            b"{not json",
            b"1" * 5000,  # over the 4300-digit limit of int()
            b"[" * 100000 + b"]" * 100000,  # deeper than the recursion limit
            b"\xff\xfe{}",  # not UTF-8
        ):
            path.write_bytes(raw)
            with pytest.raises(DocumentError):
                read_strategy_file(path)
