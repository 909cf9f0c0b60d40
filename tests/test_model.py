import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagchain import (ChainSpec, ChainValidationError, JunctionRates,
                       LocalOperator, RateTriple, build_bulk_operator,
                       build_impurity_junction, build_junction_operator,
                       build_quench_junction, chain_from_dict, chain_to_dict,
                       homogeneous_chain, homogeneous_junction, jacobi_entries,
                       load_chain, save_chain, validate_chain)
from coagchain.model import (DELTA_MAX, ROUNDING, bulk_matrix, column_defect,
                             junction_matrix)
from conftest import (impurity_chain, make_quench_spec, quench_chain,
                      random_chain)

rates_st = st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0),
                     st.floats(0.0, 10.0))


class TestRateTriple:
    def test_derived_quantities(self):
        r = RateTriple(0.5, 3.0, 1.0)
        assert r.cos_2theta * math.sqrt(1 + r.delta) == pytest.approx(1.0, abs=1e-15)
        assert r.cos_2theta == pytest.approx(math.cos(math.pi / 4), rel=1e-14)
        assert r.f == pytest.approx(-(0.5 + 3.0) * 3.0 / 4)
        assert r.mu == pytest.approx(math.sqrt(0.5 * 3.0 * 2.0))
        assert r.Q == pytest.approx(1.0 * (3.0 - 0.5) / 2)
        assert r.t == pytest.approx((0.5 - 3.0) * 1.0 / 4)

    def test_from_theta_round_trip(self):
        r = RateTriple.from_theta(1.0, 2.0, 0.3)
        assert r.delta == pytest.approx(math.tan(0.6) ** 2, rel=1e-14)
        assert r.cos_2theta == pytest.approx(math.cos(0.6), rel=1e-14)

    @pytest.mark.parametrize("bad", [
        dict(p=-0.1, q=1.0, delta=0.0),
        dict(p=1.0, q=-1e-9, delta=0.0),
        dict(p=1.0, q=1.0, delta=-0.5),
        dict(p=1.0, q=1.0, delta=2e12),
        dict(p=math.nan, q=1.0, delta=0.0),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ChainValidationError):
            RateTriple(**bad)

    @given(rates_st)
    @settings(max_examples=100, deadline=None)
    def test_cos_identity(self, pqd):
        r = RateTriple(*pqd)
        assert abs(r.cos_2theta * math.sqrt(1 + r.delta) - 1) < 1e-14


class TestBulkOperator:
    def test_symmetric_no_branching(self):
        # delta = 0 kills the branching moves entirely
        op = build_bulk_operator(RateTriple(1.0, 1.0, 0.0))
        expected = np.array([
            [0, 0, 0, 0],
            [0, -1, 1, 1],
            [0, 1, -1, 1],
            [0, 0, 0, -2],
        ], float)
        np.testing.assert_array_equal(op.entries, expected)

    def test_branching_rate_entry(self):
        # creation onto the left site from a right-occupied pair carries
        # rate delta*q, the only route from (+-) to (--)
        delta = math.tan(0.2) ** 2
        op = build_bulk_operator(RateTriple.from_theta(0.5, 3.0, 0.1))
        assert op.entries[3, 1] == pytest.approx(delta * 3.0, rel=1e-13)

    @given(rates_st)
    @settings(max_examples=100, deadline=None)
    def test_columns_sum_to_zero(self, pqd):
        op = build_bulk_operator(RateTriple(*pqd))
        assert np.max(np.abs(op.entries.sum(axis=0))) < 1e-12
        assert op.preserves_vacuum


class TestJunctionOperator:
    def test_homogeneous_choice_recovers_bulk(self):
        r = RateTriple(0.7, 2.2, 1.4)
        op = build_junction_operator(r, r, homogeneous_junction(r))
        bulk = build_bulk_operator(r)
        np.testing.assert_allclose(op.entries, bulk.entries, atol=1e-14)

    def test_columns_sum_to_zero_random(self, rng):
        for _ in range(25):
            spec = random_chain(rng)
            op = build_junction_operator(spec.seg1, spec.seg2, spec.junction)
            assert np.max(np.abs(op.entries.sum(axis=0))) < 1e-12
            off = op.entries - np.diag(np.diag(op.entries))
            assert off.min() >= -1e-12

    def test_rejects_wrong_segment_order(self):
        low = RateTriple(2.0, 0.5, 1.0)   # Q < 0
        high = RateTriple(0.5, 2.0, 1.0)  # Q > 0
        with pytest.raises(ChainValidationError, match="Q1 >= Q2"):
            build_junction_operator(low, high, homogeneous_junction(low))

    def test_rejects_negative_rate(self):
        r = RateTriple(1.0, 2.0, 1.0)
        bad = JunctionRates(p_bar=1.0, q_bar=2.0, Q_bar=-10.0)
        with pytest.raises(ChainValidationError):
            build_junction_operator(r, r, bad)


class TestImpurityJunction:
    def test_zero_shift_is_bulk(self):
        r = RateTriple(0.5, 3.0, 2.0)
        _, op = build_impurity_junction(r, 0.0)
        np.testing.assert_allclose(op.entries,
                                   build_bulk_operator(r).entries, atol=1e-14)

    def test_pair_loss_entry(self):
        r = RateTriple.from_theta(0.5, 3.0, 0.6)
        _, op = build_impurity_junction(r, -0.4)
        assert op.entries[3, 3] == pytest.approx(-0.5 - 3.0 - 2 * (-0.4))
        assert op.entries[3, 3] == pytest.approx(-2.7)

    def test_explicit_matrix(self):
        p, q, s = 0.8, 1.7, 0.35
        r = RateTriple(p, q, 1.2)
        d = r.delta
        _, op = build_impurity_junction(r, s)
        expected = np.array([
            [0, 0, 0, 0],
            [0, -(q + s) * (d + 1), p + s, p + s],
            [0, q + s, -(p + s) * (d + 1), q + s],
            [0, (q + s) * d, (p + s) * d, -p - q - 2 * s],
        ])
        np.testing.assert_allclose(op.entries, expected, atol=1e-13)

    def test_slowest_admissible_shift(self):
        r = RateTriple(0.5, 3.0, 1.0)
        junction, op = build_impurity_junction(r, -0.5)
        assert junction.p_bar == 0.0
        assert np.max(np.abs(op.entries.sum(axis=0))) < 1e-12

    def test_rejects_below_minimum(self):
        with pytest.raises(ChainValidationError,
                           match="hopping rates must be >= 0"):
            build_impurity_junction(RateTriple(0.5, 3.0, 1.0), -0.5000001)


class TestQuenchJunction:
    def test_identical_segments_recover_bulk(self):
        r = RateTriple(1.1, 0.9, 0.7)
        _, op = build_quench_junction(r, r)
        np.testing.assert_allclose(op.entries,
                                   build_bulk_operator(r).entries, atol=1e-14)

    def test_empty_pair_decay_entry(self):
        seg1 = RateTriple(0.6, 6.0, 1.0)
        seg2 = RateTriple(6.0, 0.2, 1.0)
        _, op = build_quench_junction(seg1, seg2)
        assert op.entries[0, 0] == pytest.approx(-5.6)

    def test_explicit_matrix(self):
        seg1 = RateTriple(0.6, 6.0, 1.0)
        seg2 = RateTriple(6.0, 0.2, 1.0)
        p1, q1, d1 = 0.6, 6.0, 1.0
        p2, q2, d2 = 6.0, 0.2, 1.0
        _, op = build_quench_junction(seg1, seg2)
        expected = np.array([
            [(d2 * (q2 - p2) - d1 * (q1 - p1)) / 2, 0, 0, 0],
            [(p2 * d2 - p1 * d1) / 2, -(q1 * d1 + q2 * (d2 + 2)) / 2, p1, p1],
            [(q1 * d1 - q2 * d2) / 2, q2, -(p1 * (d1 + 2) + p2 * d2) / 2, q2],
            [0, (q1 * d1 + q2 * d2) / 2, (p1 * d1 + p2 * d2) / 2, -p1 - q2],
        ])
        np.testing.assert_allclose(op.entries, expected, atol=1e-13)

    def test_boundary_zero_rate(self):
        # delta1*q1 == delta2*q2 makes one creation rate exactly zero
        seg1 = RateTriple(0.5, 2.0, 1.0)
        seg2 = RateTriple(4.0, 1.0, 2.0)
        _, op = build_quench_junction(seg1, seg2)
        assert op.entries[2, 0] == pytest.approx((2.0 - 2.0) / 2, abs=1e-14)

    def test_rejects_violated_inequality(self):
        seg1 = RateTriple(2.0, 6.0, 1.0)
        seg2 = RateTriple(1.0, 0.2, 1.0)
        with pytest.raises(ChainValidationError,
                           match="q_bar\\*delta2 - Q2 >= Q_bar"):
            build_quench_junction(seg1, seg2)


class TestValidateChain:
    def test_homogeneous_passes(self, homogeneous_spec):
        report = validate_chain(homogeneous_spec)
        assert report.ok
        assert report.violations == ()

    def test_boundary_perturbation_named(self):
        r = RateTriple(0.5, 3.0, 1.0)  # Q = 1.25 > 0
        junction = JunctionRates(p_bar=0.5, q_bar=3.0, Q_bar=r.Q - 1e-6)
        report = validate_chain(ChainSpec(2, 2, r, r, junction))
        assert not report.ok
        assert any("Q_bar >= Q2" in v for v in report.violations)

    def test_quench_choice_always_valid(self, rng):
        # the quench junction rates satisfy every general constraint
        for _ in range(50):
            p1, q1, p2, q2 = rng.uniform(0.1, 5.0, 4)
            d1 = float(rng.uniform(0.0, 3.0))
            lo = d1 * p1 / p2
            hi = d1 * q1 / q2
            if hi <= lo:
                continue
            d2 = float(rng.uniform(lo, hi))
            seg1 = RateTriple(float(p1), float(q1), d1)
            seg2 = RateTriple(float(p2), float(q2), d2)
            junction, _ = build_quench_junction(seg1, seg2)
            spec = ChainSpec(2, 2, seg1, seg2, junction)
            assert validate_chain(spec).ok, validate_chain(spec).violations


LARGE_DELTAS = [1e3, 1e4, 1e6, 1e9, 1e12]


class TestRoundingRule:
    """Valid rates build at any delta; rounding residue is stored as 0.0."""

    @given(p=st.floats(0.01, 10.0), q=st.floats(0.01, 10.0),
           log_delta=st.floats(-3.0, math.log10(DELTA_MAX)),
           shift=st.floats(0.0, 1.0), p2=st.floats(0.01, 10.0),
           q2=st.floats(0.01, 10.0), where=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_valid_operators_build(self, p, q, log_delta, shift, p2, q2,
                                   where):
        delta = min(10.0 ** log_delta, DELTA_MAX)
        r = RateTriple(p, q, delta)
        s = -min(p, q) + shift * (3.0 + min(p, q))
        junction, imp = build_impurity_junction(r, s)
        bulk = build_bulk_operator(r)
        ops = [bulk, imp]
        lo, hi = delta * p / p2, delta * q / q2  # quench: lo <= delta2 <= hi
        if lo <= hi <= DELTA_MAX:
            ops.append(build_quench_junction(
                r, RateTriple(p2, q2, lo + where * (hi - lo)))[1])
        for op in ops:
            m = op.entries
            assert (m - np.diag(np.diag(m))).min() >= 0.0
            assert column_defect(m) <= ROUNDING
        assert np.all(imp.entries[:, 0] == 0.0) and imp.preserves_vacuum
        products = [bulk.entries[1, 2], bulk.entries[2, 1],
                    bulk.entries[3, 2], bulk.entries[3, 1]]
        assert products == [p, q, delta * p, delta * q]
        assert [imp.entries[1, 2], imp.entries[2, 1]] \
            == [junction.p_bar, junction.q_bar]

    @pytest.mark.parametrize("delta", LARGE_DELTAS)
    @pytest.mark.parametrize("p, q, s, factor, rule", [
        (0.5, 3.0, 1.0, 1 + 1e-9, "q_bar*delta2 - Q2 >= Q_bar"),
        (0.5, 3.0, 1.0, 1 + 1e-9, "p_bar*delta1 + Q1 >= Q_bar"),
        (0.5, 3.0, 1.0, 1 - 1e-9, "2*Q_bar >= p_bar*delta1 + q_bar*delta2"),
        (0.5, 3.0, -0.5, 1 - 1e-9, "Q_bar >= Q2"),
        (3.0, 0.5, -0.5, 1 - 1e-9, "Q_bar >= -Q1"),
    ])
    def test_violation_beyond_rounding_named(self, delta, p, q, s, factor,
                                             rule):
        # the impurity junction sits on these bounds; moving Q_bar by 1e-9
        # of itself makes the rule's entry negative by that much
        r = RateTriple(p, q, delta)
        junction, _ = build_impurity_junction(r, s)
        nudged = JunctionRates(junction.p_bar, junction.q_bar,
                               junction.Q_bar * factor)
        with pytest.raises(ChainValidationError, match=re.escape(rule)):
            build_junction_operator(r, r, nudged)

    @pytest.mark.parametrize("delta", LARGE_DELTAS)
    def test_quench_boundary_within_rounding_builds(self, delta):
        # delta2*p2 == delta1*p1 up to the rounding of delta2 itself
        seg1 = RateTriple(0.6, 6.0, delta / 30)
        seg2 = RateTriple(6.0, 0.2, delta / 30 * 0.6 / 6.0)
        _, op = build_quench_junction(seg1, seg2)
        assert op.entries[1, 0] >= 0.0


class TestExactRates:
    @pytest.mark.parametrize("spec", [
        impurity_chain(RateTriple(Fraction(1, 2), Fraction(3), Fraction(7, 3)),
                       3, Fraction(1, 3)),
        quench_chain(RateTriple(Fraction(3, 5), Fraction(6), Fraction(1)),
                     RateTriple(Fraction(6), Fraction(1, 5), Fraction(13, 10)),
                     3),
    ], ids=["impurity", "quench"])
    def test_fraction_rates_stay_exact(self, spec):
        # no float literal turns a rational rate into a float on its way
        # into T or a bond operator, so every column sums to exactly 0
        ops = [bulk_matrix(spec.seg1), bulk_matrix(spec.seg2),
               junction_matrix(spec.seg1, spec.seg2, spec.junction)]
        diagonal, squares = jacobi_entries(spec)
        entries = diagonal + squares + [x for m in ops for x in m.flat]
        assert {type(x) for x in entries} <= {Fraction, int}
        for m in ops:
            assert all(sum(col) == 0 for col in m.T.tolist())


class TestLocalOperatorInvariants:
    def test_rejects_nonzero_column_sum(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(ChainValidationError, match="sum"):
            LocalOperator(bad)

    def test_rejects_negative_rate(self):
        bad = np.zeros((4, 4))
        bad[1, 2] = -0.5
        bad[2, 2] = 0.5
        with pytest.raises(ChainValidationError, match="negative"):
            LocalOperator(bad)

    def test_entries_read_only(self):
        op = build_bulk_operator(RateTriple(1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 1.0


class TestJsonRoundTrip:
    def test_explicit(self, rng):
        spec = random_chain(rng)
        doc = chain_to_dict(spec)
        back = chain_from_dict(json.loads(json.dumps(doc)))
        assert back == spec

    def test_impurity_kind(self, tmp_path):
        r = RateTriple.from_theta(0.5, 3.0, 0.6)
        junction, _ = build_impurity_junction(r, -0.3)
        spec = ChainSpec(4, 4, r, r, junction, junction_kind="impurity",
                         impurity_s=-0.3)
        path = tmp_path / "chain.json"
        save_chain(spec, path)
        doc = json.loads(path.read_text())
        assert doc["junction_kind"] == "impurity"
        assert doc["s"] == -0.3
        assert load_chain(path) == spec

    def test_quench_kind(self, tmp_path):
        spec = make_quench_spec(L=3)
        path = tmp_path / "chain.json"
        save_chain(spec, path)
        assert load_chain(path) == spec

    def test_unknown_kind_rejected(self):
        doc = chain_to_dict(homogeneous_chain(RateTriple(1, 1, 0), 2, 2))
        doc["junction_kind"] = "mystery"
        with pytest.raises(ChainValidationError, match="junction_kind"):
            chain_from_dict(doc)

    @pytest.mark.parametrize("bad", [2.7, True, 2.0, "2"])
    def test_non_integer_length_rejected(self, bad):
        # int() would read 2.7 as 2 and true as 1
        doc = chain_to_dict(homogeneous_chain(RateTriple(1, 1, 0), 2, 2))
        doc["L2"] = bad
        with pytest.raises(ChainValidationError, match="integers"):
            chain_from_dict(doc)
