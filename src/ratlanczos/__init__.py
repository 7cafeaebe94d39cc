"""Short-recurrence rational Lanczos toolkit.

Computes the projected matrix J_m = Q_m^T A Q_m of a rational Krylov
subspace of a symmetric matrix without storing the orthonormal basis,
and builds application pipelines on top of it: matrix-function bilinear
forms, stochastic trace and log-determinant estimation, H2 norms of LTI
systems and reduced LQR feedback, plus finite-precision diagnostics.
"""

from .arnoldi import ArnoldiProcess, ArnoldiResult, arnoldi_run
from .block import (BlockLanczosResult, BlockRecurrenceState,
                    block_assemble_HK, block_init_state, block_lanczos_step,
                    block_run)
from .control import (H2Result, LqrResult, LtiSystem, ParametricIO,
                      ReducedController, eval_control, h2_norm,
                      h2_norm_arnoldi, h2_param_norm, l2_stop_metric,
                      lqr_reduce, lqr_reduce_arnoldi, mass_transform,
                      system_from_descriptor)
from .dense import (care_newton, expm_general, lyap_sym, matfun_action_e1,
                    matfun_first_cols, qr_thin, sym_eig)
from .errors import (AlphaBreakdownError, ConvergenceError,
                     DeflationNeededError, DimensionError, DomainError,
                     IndefiniteShiftError, OperatorMismatchError,
                     RankDeficiencyError, RatLanczosError, ShiftError,
                     SingularKError, StabilityError, SymmetryError)
from .forms import (BilinearResult, BlockFormResult, FormRequest, FormResult,
                    LogDetResult, TraceRequest, TraceResult, bilinear_form,
                    block_quad_form, gp_precision_matrix, hutchinson_trace,
                    hutchinson_trace_arnoldi, logdet, quad_form,
                    quad_form_arnoldi, rademacher_block, residual_bound)
from .io import (read_dense_matrix, read_matrix_market,
                 read_system_descriptor, write_matrix_market)
from .lanczos import (DiagnosticsReport, LanczosResult, RecurrenceState,
                      assemble_HK, diagnostics, init_state, lanczos_step,
                      run)
from .problems import (gen_indicator, gen_laplacian2d, gen_strakos,
                       gp_points, grid_coords, strakos_eigenvalues)
from .shifts import (INFINITY, FactorizationCache, Shift, ShiftSequence,
                     ShiftedFactorization, default_shifts, shifted_factorize)
from .sparse import SparseSym, norm_estimate

__version__ = "0.1.0"
