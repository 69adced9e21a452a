"""hyperlab: a numerical laboratory for Fourier uniqueness on the
hyperbola x1 * x2 = -m^2 / (4 pi^2).

Measures on the hyperbola are carried by their first-coordinate
compression (atoms plus piecewise densities on the line); the library
evaluates their Fourier transforms on lattice-crosses, runs the
Gauss-map dynamics and Ulam transfer operators behind the invariant
densities, constructs the explicit annihilating measures, exercises the
Hardy-space and Hilbert-transform machinery, and estimates numerical
defects of cross-pairing systems by SVD.
"""

from .measures import (MeasureError, Piece, Measure1D, HyperbolaMeasure,
                       piece_from_family, compress_pi2, pushforward_inversion,
                       total_variation, restrict)
from .sici import exp_integral_tail, SpiralPoint, SpiralResult, \
    nielsen_spiral
from .fourier import (QuadratureError, LatticeCross, CrossValue, pairing,
                      ft_point, ft_on_cross, critical_measure_ft)
from .dynamics import GaussMap, coverage_fraction
from .transfer import UlamError, InvariantDensity, invariant_density, \
    invariance_residual
from .annihilators import (critical_annihilator, expanded_annihilator,
                           piece_mass, total_mass, periodization_sum1,
                           periodization_sum2, periodized_residual,
                           symmetry_residual, AnnihilatorReport,
                           annihilator_report, perturbed_equation_residual)
from .hardy import (q2_coefficients, HardyDefect, hardy_defect, inversion_j,
                    SampledFunction, hilbert_line, HyperbolaHilbert,
                    hilbert_hyperbola, PairingRow, timelike_witness)
from .defect import (CandidateBasis, ConstraintMatrix,
                     build_constraint_matrix, DefectEstimate,
                     defect_estimate, cross_for_gamma, SweepRow, sweep_gamma,
                     cosine_similarity, distorted_cross_residual)

__version__ = "0.1.0"
