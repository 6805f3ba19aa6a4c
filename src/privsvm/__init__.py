"""Weighted SVM and privileged-information SVM training, their equivalence
toolkit, optimality diagnostics, weight learning, and an experiment harness.
"""

from .data import (AffineMap, Dataset, PrivilegedSet, load_confidence,
                   load_privileged, load_sparse, load_sparse_features,
                   load_weights, rescale_features, save_confidence,
                   save_sparse, save_weights)
from .equivalence import (ConstructedPrivileged, EquivalenceReport,
                          NotRepresentableError, RhoZeroDiagnostic,
                          check_rho_zero_reduction, construct_privileged,
                          equivalence_report, family_membership,
                          necessary_condition, rho, weights_from_svmplus)
from .experiments import (BlobsSample, ExperimentConfig, ResultRow,
                          ResultTable, WMixture, bandwidth_grid,
                          counterexample_dataset, default_log_grid,
                          emit_results, figure3_study,
                          generate_blobs_with_outliers, generate_w_mixture,
                          parse_results, replicate_svmplus_with_wsvm,
                          run_experiment, wshape_study)
from .kernels import GAUSSIAN_RBF, LINEAR, KernelSpec, gram
from .kkt import (BUniquenessResult, IndexSets, KktReport, b_uniqueness,
                  check_svmplus_kkt, check_wsvm_kkt,
                  dual_uniqueness_condition)
from .serialize import (SvmPlusRecord, WsvmRecord, model_to_text,
                        record_from_text)
from .schemes import (ConfidenceScores, hinge_losses, nadaraya_watson,
                      probability_weights, weighted_risk, zero_one_losses)
from .smooth import PrimalModel, smooth_hinge, solve_primal
from .svmplus import SvmPlusModel, correcting_values, solve_svmplus
from .weightlearn import (GradientWorkspace, WeightLearningConfig,
                          WeightLearningResult, implicit_gradient,
                          learn_weights)
from .wsvm import (ConvergenceError, WsvmModel, check_weights,
                   offset_interval, predict, solve_wsvm)

__version__ = "1.0.0"
