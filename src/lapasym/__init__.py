"""Exact lattice Laplacian pseudoinverse-trace sums and their asymptotics.

The package computes the grid-frequency sums F_n whose quarter (sixth,
eighth) is the trace of the pseudoinverse of the periodic square
(triangular, modified union jack) lattice Laplacian, evaluates their
closed-form large-n expansions, and cross-verifies the two through exact
identities, quadrature oracles and least-squares coefficient recovery.
"""

from .asymptotics import (ExpansionForm, axis_sum_expansion,
                          edge_sum_decay_coefficient, exp_tail_limit,
                          integral_f1_restricted, log_cos_closed_forms,
                          model_for_lattice, restricted_integral_expansion,
                          restricted_integral_f2, restricted_integral_lambda)
from .decomposition import (double_sum_via_digamma, euler_maclaurin,
                            factor_rows, piece_sums, profile_decomposition)
from .extrapolation import fit_expansion
from .lattice_sum import (BUILTIN_LATTICES, MODIFIED_UNION_JACK, SQUARE,
                          TRIANGULAR, GridGeometry, LatticeSpec, SumResult,
                          builtin_lattice, exact_sum, exact_sums, kernel_fm,
                          kernel_psi, parse_lattice_file, restricted_sum_f2,
                          trace_pseudoinverse)
from .quadrature import (QuadratureResult, factored_log_integrals,
                         integral_f2_restricted, integrate_1d, integrate_2d)
from .specfun import BERNOULLI, CONSTANTS, clausen_cl2, log_q_pochhammer_inv

__version__ = "0.1.0"
