import sys

import numpy as np
import pytest

from coagchain import oneparticle, verify
from coagchain.spectrum import vacuum_energy
from conftest import make_benchmark_chain


def verdicts(spec, level="quick"):
    return {r.name: r.passed for r in verify.run_verification(spec, level)}


@pytest.mark.parametrize("family", ["impurity", "quench"])
def test_trace_identity_catches_shifted_omega(family, monkeypatch):
    spec = make_benchmark_chain(family, 8)
    assert verdicts(spec)["trace identity"]
    monkeypatch.setattr(verify, "vacuum_energy",
                        lambda spec, sp: vacuum_energy(spec, sp) + 1e-9)
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
    result = verify._simulation_check(spec)
    assert result.passed, result.detail
    (target,) = targets
    assert target.sum() == pytest.approx(1.0, abs=1e-12)
    assert target.min() > -1e-12
    if absorbing:
        assert target[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 3])
def test_unexpected_null_space_fails(dim, monkeypatch):
    spec = make_benchmark_chain("impurity", 4)  # absorbing: dimension 2
    monkeypatch.setattr(verify, "stationary_vectors",
                        lambda gen: [np.full(16, 1 / 16)] * dim)
    result = verify._simulation_check(spec)
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
