import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coagchain
from coagchain import (ChainSpec, JunctionRates, RateTriple,
                       assemble_generator, build_junction_operator,
                       build_quench_junction, homogeneous_chain, oneparticle,
                       spins, validate_chain, verify)
from coagchain.spectrum import vacuum_energy
from conftest import (exact_chains, impurity_chain, make_benchmark_chain,
                      make_impurity_spec, make_quench_spec, quench_chain,
                      random_chain)


def verdicts(spec, level="quick"):
    return {r.name: r.passed for r in verify.run_verification(spec, level)}


@pytest.mark.parametrize("family", ["impurity", "quench"])
def test_trace_identity_catches_shifted_omega(family, monkeypatch):
    spec = make_benchmark_chain(family, 8)
    assert verdicts(spec)["trace identity"]
    monkeypatch.setattr(verify, "vacuum_energy",
                        lambda spec: vacuum_energy(spec) + 1e-9)
    assert not verdicts(spec)["trace identity"]


@pytest.mark.parametrize("family, absorbing", [("impurity", True),
                                               ("quench", False)])
def test_simulation_target(family, absorbing, monkeypatch):
    # an absorbing empty lattice gives a 2-dimensional null space and a
    # target with no empty-lattice weight; a refilled one gives one vector
    spec = make_benchmark_chain(family, 4)
    assert spec.bond_operator(spec.L1).preserves_vacuum == absorbing
    targets = []
    real = verify.gillespie.total_variation

    def recorded(hist, target):
        targets.append(target)
        return real(hist, target)

    monkeypatch.setattr(verify.gillespie, "total_variation", recorded)
    result = verify._simulation_check(spec, assemble_generator(spec))
    assert result.passed, result.detail
    (target,) = targets
    assert target.sum() == pytest.approx(1.0, abs=1e-12)
    assert target.min() > -1e-12
    if absorbing:
        assert target[0] == pytest.approx(0.0, abs=1e-12)


def test_absorbed_run_compares_its_final_state():
    # with p = 0 the run is absorbed at a one-particle state after a few
    # events; its histogram holds only the time before that
    spec = homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3)
    result = verify._simulation_check(spec, assemble_generator(spec))
    assert result.passed, result.detail
    assert "absorbed" in result.detail


def test_frozen_chain_runs_to_the_end():
    # every rate 0: G = 0, and neither route has a nonzero eigenvalue
    spec = homogeneous_chain(RateTriple(0.0, 0.0, 1.0), 2, 2)
    found = verdicts(spec, "full")
    assert found["trace identity"] and found["gap vs brute force"]
    # a 16-dimensional null space: every diagonal block of B is singular
    assert not found["simulator stationarity"]


def test_frozen_segment_fails_the_simulator_check():
    # p = q = 0 in segment 2 only: a singular diagonal block, reported
    spec = ChainSpec(2, 2, RateTriple(0.5, 3.0, 1.0),
                     RateTriple(0.0, 0.0, 1.0), JunctionRates(1.0, 1.0, 1.0))
    (result,) = [r for r in verify.run_verification(spec, "full")
                 if r.name == "simulator stationarity"]
    assert not result.passed
    assert "singular" in result.detail


@pytest.mark.parametrize("theta, n_sites", [(0.6, 12), (0.78, 8), (0.78, 10)])
def test_dense_oracle_resolves_impurity_chains(theta, n_sites):
    # the chains whose non-normal blocks once missed the assembled
    # spectrum by up to 83; the 1e-8 tolerances are unchanged
    spec = make_impurity_spec(n_sites // 2, theta=theta, s=1.0)
    results = verify.run_verification(spec, "full")
    assert [r for r in results if not r.passed] == []
    names = {r.name for r in results}
    assert {"block symmetry", "oracle multiset equivalence",
            "gap vs brute force"} <= names
    assert "brute-force spectrum real" not in names


def test_scaled_generator_entry_fails_without_raising(monkeypatch):
    # one rate of G scaled by 1 + 1e-9: the oracle's structure check
    # fails as a check, and the battery still reports every other check
    spec = make_benchmark_chain("impurity", 8)

    def scaled(spec):
        gen = assemble_generator(spec)
        gen[0b10110100, 0b01110100] *= 1 + 1e-9
        return gen

    monkeypatch.setattr(verify, "assemble_generator", scaled)
    monkeypatch.setattr(verify, "_SIM_EVENTS", 1_000)
    results = {r.name: r for r in verify.run_verification(spec, "full")}
    assert not results["block symmetry"].passed
    assert "block triangular" in results["block symmetry"].detail
    assert not results["simulator stationarity"].passed
    assert results["trace identity"].passed


@pytest.mark.parametrize("family", ["impurity", "quench"])
def test_block_matrix_built_once(family, monkeypatch):
    spec = make_benchmark_chain(family, 40)
    builds = []
    real_build = oneparticle.build_script_matrix

    def counted_build(spec):
        builds.append(spec.n_sites)
        return real_build(spec)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "coagchain"
                and hasattr(module, "build_script_matrix")):
            monkeypatch.setattr(module, "build_script_matrix", counted_build)
    verify.run_verification(spec)
    assert builds == [40]


@pytest.mark.parametrize("family", ["impurity", "quench"])
def test_generator_assembled_once(family, monkeypatch):
    # the oracle and the simulator's stationary target share one matrix;
    # the count does not depend on the simulator's event budget
    spec = make_benchmark_chain(family, 8)
    sizes = []

    def counted(spec):
        sizes.append(spec.n_sites)
        return assemble_generator(spec)

    monkeypatch.setattr(verify, "assemble_generator", counted)
    monkeypatch.setattr(verify, "_SIM_EVENTS", 1_000)
    names = [r.name for r in verify.run_verification(spec, "full")]
    assert "simulator stationarity" in names
    assert sizes == [8]


@pytest.mark.parametrize("L1, L2, p1", [(1, 5, 0.6), (5, 1, 0.6),
                                        (3, 3, 0.6), (3, 3, 0.0)])
def test_residual_detail_names_ansatz_modes_not_run(L1, L2, p1):
    seg1, seg2 = RateTriple(p1, 6.0, 1.0), RateTriple(6.0, 0.2, 1.3)
    junction, _ = build_quench_junction(seg1, seg2)
    spec = ChainSpec(L1, L2, seg1, seg2, junction, junction_kind="quench")
    (result,) = [r for r in verify.run_verification(spec, "quick")
                 if r.name == "eigenvector residuals"]
    assert result.passed
    assert not result.detail.startswith("skipped")
    not_run = ("edge and bulk ansatz modes not run (need L1, L2 >= 2 and "
               "p*q > 0)" in result.detail)
    assert not_run == (min(L1, L2) == 1 or p1 == 0), result.detail


@pytest.mark.parametrize("spec", [
    make_impurity_spec(2, theta=0.78, s=1.0),
    make_quench_spec(2, delta1=1e6, delta2=1.3e6),
    make_quench_spec(2, delta1=1e9, delta2=1.3e9),
    homogeneous_chain(RateTriple(0.5, 3.0, 1e12), 2, 2),
], ids=["impurity-delta8.6e3", "quench-delta1e6", "quench-delta1e9",
        "bulk-delta1e12"])
def test_decompositions_pass_at_large_delta(spec):
    # the expansion terms grow like delta**1.5 and cancel to the operator
    # entries: only the 40-digit reassembly resolves them
    found = verdicts(spec)
    assert found["bulk decomposition"]
    assert found["junction decomposition"]


@pytest.mark.parametrize("delta", [1.0, 1e9])
@pytest.mark.parametrize("check, builder, field", [
    ("junction decomposition", "junction_coefficients", "psi"),
    ("junction decomposition", "junction_coefficients", "alpha"),
    ("junction decomposition", "junction_coefficients", "tau"),
    ("bulk decomposition", "bulk_coefficients", "a"),
    ("bulk decomposition", "bulk_coefficients", "t"),
])
def test_decompositions_catch_a_scaled_coefficient(check, builder, field,
                                                   delta, monkeypatch):
    spec = make_quench_spec(2, delta1=delta, delta2=1.3 * delta)
    assert verdicts(spec)[check]
    real = getattr(spins, builder)

    def scaled(*rates):
        co = real(*rates)
        return dataclasses.replace(
            co, **{field: getattr(co, field) * (1 + 1e-12)})

    monkeypatch.setattr(spins, builder, scaled)
    assert not verdicts(spec)[check]


def test_mpmath_loaded_only_by_the_decomposition_checks():
    env = dict(os.environ,
               PYTHONPATH=str(Path(coagchain.__file__).parents[1]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, coagchain; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "False"
    verify.run_verification(make_benchmark_chain("quench", 4), "quick")
    import mpmath
    assert mpmath.mp.dps == 15


EXACT = exact_chains()


@pytest.mark.parametrize("name", EXACT)
def test_wall_identities_exact_in_fractions(name):
    spec = EXACT[name]
    defects = verify._wall_defects(spec, verify._bond_matrices(spec))
    assert {type(d) for d in defects} <= {Fraction, int}
    assert len(defects) == 27 + 4 * (spec.n_sites - 2)
    assert all(d == 0 for d in defects)


@pytest.mark.parametrize("family", ["impurity", "quench"])
@pytest.mark.parametrize("n_sites", [8, 10, 12, 20, 40])
def test_oracle_check_chains_pass(family, n_sites):
    # the block-matrix pairing and set checks failed these from N = 20
    results = verify.run_verification(make_benchmark_chain(family, n_sites),
                                      "quick")
    assert [r for r in results if not r.passed] == []
    assert "wall operator vs Jacobi matrix" in {r.name for r in results}


@pytest.mark.parametrize("family", ["impurity", "quench"])
@pytest.mark.parametrize("index", [0, 3, 4, 5, 7])
def test_scaled_jacobi_coupling_fails_the_wall_check(family, index,
                                                     monkeypatch):
    spec = make_benchmark_chain(family, 10)
    assert verify._wall_check(spec).passed
    real = verify.jacobi_entries

    def scaled(spec):
        diagonal, squares = real(spec)
        squares[index] = squares[index] * (1 + 2.0 ** -40)
        return diagonal, squares

    monkeypatch.setattr(verify, "jacobi_entries", scaled)
    assert not verify._wall_check(spec).passed


@pytest.mark.parametrize("chain, field", [
    ("quench", "Q_bar"), ("random", "p_bar"), ("random", "q_bar"),
    ("random", "Q_bar")])
def test_scaled_junction_operator_fails_the_wall_check(chain, field, rng):
    # one junction rate scaled by 1 + 2^-40 in the stored operator only;
    # T and the magnitudes keep reading the chain's own rates
    spec = (make_benchmark_chain("quench", 10) if chain == "quench"
            else random_chain(rng, 4, 5))
    assert verify._wall_check(spec).passed
    scaled = dataclasses.replace(
        spec.junction, **{field: getattr(spec.junction, field)
                          * (1 + 2.0 ** -40)})
    spec.__dict__["_junction_operator"] = build_junction_operator(
        spec.seg1, spec.seg2, scaled)  # the cached operator of bond L1
    assert not verify._wall_check(spec).passed


@st.composite
def _valid_chains(draw):
    """Valid chains with N <= 10^4: random junctions over delta up to 1e9,
    and impurity and quench chains with p*q = 0 in a segment."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L1, L2 = draw(st.integers(1, 5000)), draw(st.integers(1, 5000))
    kind = draw(st.sampled_from(["random", "impurity", "quench"]))
    if kind == "random":
        deltas = tuple(10.0 ** rng.uniform(-3, 9, 2))
        return random_chain(rng, L1, L2, deltas)
    p, q = 10.0 ** rng.uniform(-3, 2, 2)
    p, q = draw(st.sampled_from([(p, q), (0.0, q), (p, 0.0)]))
    delta = 10.0 ** rng.uniform(-3, 9)
    if kind == "impurity":
        return impurity_chain(RateTriple(p, q, delta), L1,
                              float(rng.uniform(-min(p, q), 3.0)))
    # delta2*p2 >= delta1*p1 and delta1*q1 >= delta2*q2, strictly
    seg1 = RateTriple(p, q, delta)
    seg2 = RateTriple(p / 1.3 + rng.uniform(0.01, 3.0),
                      q / 1.3 * rng.uniform(0.0, 0.99), 1.3 * delta)
    junction, _ = build_quench_junction(seg1, seg2)
    return ChainSpec(L1, L2, seg1, seg2, junction)


@given(_valid_chains())
@settings(max_examples=25, deadline=None)
def test_wall_check_passes_on_valid_chains(spec):
    assert validate_chain(spec).ok
    result = verify._wall_check(spec)
    assert result.passed, (spec, result.residual)
