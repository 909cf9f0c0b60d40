"""Stochastic simulation converging to the exact stationary state.

The impurity chain conserves the empty lattice but cannot reach it from
any occupied configuration (a lone particle never disappears), so a run
started from the full lattice relaxes to the unique stationary state of
the occupied sector.  The simulator draws its rates from the same local
operators as the matrix machinery, making this an end-to-end check.
"""

from coagchain import (ChainSpec, LatticeState, RateTriple,
                       assemble_generator, build_impurity_junction, run,
                       stationary_vectors, total_variation)

rates = RateTriple.from_theta(0.5, 3.0, 0.6)
junction, _ = build_impurity_junction(rates, s=-0.3)
spec = ChainSpec(2, 2, rates, rates, junction,
                 junction_kind="impurity", impurity_s=-0.3)

# the first stationary vector is the occupied sector's, with no weight on
# the empty configuration; the second is the empty-lattice point mass
target = stationary_vectors(assemble_generator(spec))[0]

print("exact stationary state of the occupied sector:")
for config, prob in enumerate(target):
    if prob > 1e-12:
        print(f"  {config:04b}  {prob:.6f}")

print("\nconvergence of the time-weighted histogram (seed 7):")
print("  events    TV distance")
for n_events in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    result = run(spec, LatticeState.full(4), n_events, seed=7)
    tv = total_variation(result.histogram(), target)
    print(f"  {n_events:>7d}   {tv:.5f}")
