import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coagchain
from coagchain import (ChainSpec, JunctionRates, RateTriple,
                       assemble_generator, build_quench_junction,
                       homogeneous_chain, oneparticle, spins, verify)
from coagchain.spectrum import vacuum_energy
from conftest import (make_benchmark_chain, make_impurity_spec,
                      make_quench_spec)


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


@pytest.mark.parametrize("dim", [1, 3])
def test_unexpected_null_space_fails(dim, monkeypatch):
    spec = make_benchmark_chain("impurity", 4)  # absorbing: dimension 2
    monkeypatch.setattr(verify, "stationary_vectors",
                        lambda gen: [np.full(16, 1 / 16)] * dim)
    result = verify._simulation_check(spec, assemble_generator(spec))
    assert not result.passed
    assert f"{dim}-dimensional null space" in result.detail


@pytest.mark.parametrize("family", ["impurity", "quench"])
def test_block_matrix_built_and_diagonalised_once(family, monkeypatch):
    spec = make_benchmark_chain(family, 40)
    builds, solves = [], []
    real_build = oneparticle.build_script_matrix
    real_eigvals = np.linalg.eigvals

    def counted_build(spec):
        builds.append(spec.n_sites)
        return real_build(spec)

    def counted_eigvals(a):
        solves.append(np.shape(a))
        return real_eigvals(a)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "coagchain"
                and hasattr(module, "build_script_matrix")):
            monkeypatch.setattr(module, "build_script_matrix", counted_build)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    verify.run_verification(spec)
    assert builds == [40]
    assert solves.count((84, 84)) == 1


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
