"""Walkthrough: assembling the exact spectrum and checking it brute force.

Builds a small two-segment chain, computes its one-particle energies from
the secular equation, assembles all 2^N generator eigenvalues from the
parity rule, and compares against dense diagonalization of the full
configuration-space generator.
"""

import numpy as np

from coagchain import (ChainSpec, RateTriple, assemble_full_spectrum,
                       assemble_generator, brute_force_spectrum,
                       build_quench_junction, one_particle_spectrum, parity,
                       spectral_gap, vacuum_energy)

# Two segments with very different rates, glued by the quench junction.
seg1 = RateTriple(p=0.6, q=6.0, delta=1.0)
seg2 = RateTriple(p=6.0, q=0.2, delta=1.0)
junction, op = build_quench_junction(seg1, seg2)
spec = ChainSpec(L1=3, L2=3, seg1=seg1, seg2=seg2, junction=junction,
                 junction_kind="quench")

print("junction operator (columns = source configuration):")
print(np.array2string(op.entries, precision=3, suppress_small=True))

sp = one_particle_spectrum(spec)
print(f"\none-particle energies via the {sp.route} route:")
print(f"  zero mode        {sp.lambda_zero:+.6f}")
print(f"  segment-1 edge   {sp.lambda_edge_1:+.6f}")
print(f"  segment-2 edge   {sp.lambda_edge_2:+.6f}")
for k, lam in enumerate(sp.bulk_roots, 1):
    print(f"  secular root {k}   {lam:+.6f}")

omega = vacuum_energy(spec)
par = parity(spec)
print(f"\nvacuum energy {omega:.6f}, {par} excitation parity")

gap = spectral_gap(sp, omega, par)
print(f"spectral gap {gap.gap:.6f} from excitations {gap.labels}")

full = assemble_full_spectrum(sp, omega, par, spec.n_sites)
brute = brute_force_spectrum(assemble_generator(spec))
err = np.max(np.abs(np.sort(brute.real) - np.sort(full)))
print(f"\nall {len(full)} assembled eigenvalues vs dense diagonalization:")
print(f"  largest multiset deviation {err:.2e}")
print(f"  largest imaginary part     {np.max(np.abs(brute.imag)):.2e}")
