"""Metric-learning hybrid recommendations for meta-mining: preference
matrices from paired experiment outcomes, four bilinear metric objectives,
cold-start predictors, and leave-one-out evaluation."""

from .data_model import (DescriptorTable, HyperParams, InitScheme,
                         MetaMiningData, ModelParams, PerformanceMatrix,
                         PreferenceMatrix, StandardizationRecord, numeric_rank,
                         standardize, validate_tables)
from .evaluation import (EvaluationReport, Protocol, binomial_sign_test,
                         compare_strategies, run_lodo, run_lodwo, run_lowo,
                         top_k_performance)
from .metric_learning import (Objective, ObjectiveKind, StopReason,
                              TrainTrace, gradient, objective_value, train)
from .preference import (OutcomeCube, PairOutcome, SimilarityTarget,
                         build_preference_matrix, score_dataset,
                         similarity_target, spearman)
from .recommend import (PreferencePrediction, Strategy, Task,
                        default_strategy, euclidean_strategy,
                        knn_predict_dataset_prefs, knn_predict_workflow_prefs,
                        learned_similarity, predict_pair)
from .synth import SynthConfig, SynthMode, SynthResult, centered_scores, generate

__version__ = "0.1.0"
