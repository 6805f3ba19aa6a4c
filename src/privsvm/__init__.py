"""Weighted SVM and privileged-information SVM training, their equivalence
toolkit, optimality diagnostics, weight learning, and an experiment harness.
"""

from .data import (Dataset, PrivilegedSet, load_privileged, load_sparse,
                   load_weights, save_weights)
from .equivalence import (ConstructedPrivileged, EquivalenceReport,
                          NotRepresentableError, construct_privileged,
                          equivalence_report, family_membership, rho,
                          weights_from_svmplus, wsvm_from_svmplus)
from .experiments import (BlobsSample, ExperimentConfig, ResultRow,
                          ResultTable, WMixture, bandwidth_grid,
                          counterexample_dataset, emit_results,
                          figure3_study, generate_blobs_with_outliers,
                          generate_w_mixture,
                          parse_results, run_experiment, wshape_study)
from .kernels import GAUSSIAN_RBF, LINEAR, KernelSpec, gram
from .kkt import (BUniquenessResult, KktReport, b_uniqueness,
                  check_svmplus_kkt, check_wsvm_kkt, dual_uniqueness_condition)
from .serialize import model_to_text
from .schemes import nadaraya_watson, probability_weights
from .smooth import PrimalModel, smooth_hinge, solve_primal
from .svmplus import SvmPlusModel, solve_svmplus
from .weightlearn import (GradientWorkspace, WeightLearningConfig,
                          WeightLearningResult, implicit_gradient,
                          learn_weights)
from .wsvm import (ConvergenceError, WsvmModel, check_weights, predict,
                   solve_wsvm)

__version__ = "1.0.0"
