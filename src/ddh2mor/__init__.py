"""Data-driven h2-optimal model order reduction for discrete-time LTI systems.

Given one-step state/input snapshots of an unknown stable system, the
package reconstructs the dual (adjoint) data, evaluates the exact h2
objective gradients without the system matrices, and descends them over
(Ahat, Bhat) with a stability-safeguarded Armijo line search, solving for
the best Chat in closed form.  DMDc, Loewner, and Hankel-based
initializers plus a model-based oracle round out the pipeline.
"""

from .dataio import (AssumptionReport, DataEnsemble, IterRecord, NoiseSpec,
                     TrajectorySet, check_assumptions, generate_ensemble,
                     generate_trajectories, load_ensemble, numerical_rank,
                     save_ensemble)
from .ddgrad import (DualData, GramianSet, data_gradients,
                     data_gradients_B_known, data_gradients_from_ensemble,
                     objective_f, reconstruct_dual,
                     reconstruct_dual_known_input, rom_gramians,
                     solve_gramians, solve_R, solve_S, solve_SB)
from .errors import (AssumptionViolated, FormatError, GenerationFailed,
                     InsufficientData, NoUniqueSolution, NotStable,
                     NumericalOverflow, RankDeficientData, ReductionError,
                     SingularE, SingularShift, StabilizationFailed)
from .initmor import (FreqSample, ImpulseData, impulse_from_system,
                      init_data_bt, init_dmdc, init_loewner,
                      load_frequency_samples, load_impulse_data, make_stable,
                      sample_frequency_data, save_frequency_samples,
                      save_impulse_data)
from .matequ import (PencilReport, SchurFactor, pencil_diagnostics,
                     pseudoinverse, solve_discrete_sylvester, solve_stein)
from .optim import (OptimParams, OptimResult, StopReason, run,
                    stack_direction)
from .sysmodel import (ErrorGramians, GradientTriple, H2ErrorEvaluator,
                       LtiSystem, Rom, SyntheticSpec, error_gramians,
                       generate_synthetic, h2_error, h2_norm,
                       markov_parameters, model_based_gradients, simulate,
                       transfer_eval)

__version__ = "0.1.0"
