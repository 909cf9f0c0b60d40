"""Exact spectra of coagulation/decoagulation chains with an impurity bond.

Two homogeneous segments of a stochastic lattice gas (hopping,
pair-coagulation, branching) are glued by one special bond whose rates
keep the generator equivalent to free fermions.  The package computes the
complete spectrum and spectral gap from a Chebyshev secular equation plus
closed-form boundary energies, and cross-checks everything against dense
diagonalization of the 2^N generator and direct stochastic simulation.
"""

from .errors import (ChainValidationError, ConsistencyError,
                     DegenerateModeError, SizeLimitError)
from .model import (ChainSpec, ChainValidation, JunctionRates, LocalOperator,
                    RateTriple, build_bulk_operator, build_impurity_junction,
                    build_junction_operator, build_quench_junction,
                    chain_from_dict, chain_to_dict, homogeneous_chain,
                    homogeneous_junction, load_chain, save_chain,
                    validate_chain)
from .spins import (BulkCoefficients, JunctionCoefficients, SpinMatrixSet,
                    bulk_coefficients, junction_coefficients, spin_matrices,
                    verify_bulk_identity, verify_junction_identity)
from .generator import (assemble_generator, brute_force_spectrum,
                        stationary_vectors)
from .chebyshev import ScaledValue, chebyshev_u_pair_scaled
from .oneparticle import (ModeVector, OneParticleSpectrum, build_script_matrix,
                          bulk_mode, edge_energies, edge_modes,
                          homogeneous_energies, homogeneous_modes,
                          jacobi_entries, one_particle_spectrum,
                          pairing_residual,
                          secular_function, solve_secular, trivial_zero_modes)
from .spectrum import (GapResult, assemble_full_spectrum, critical_theta,
                       finite_homogeneous_gap, homogeneous_gap, parity,
                       spectral_gap, vacuum_energy)
from .report import SpectrumReport, spectrum_report
from .sweeps import (SweepPoint, impurity_gap_sweep, quench_gap_sweep,
                     sweep_rows)
from .gillespie import LatticeState, SimulationResult, run, total_variation
from .verify import CheckResult, run_verification

__version__ = "0.1.0"
