"""Sybil detection toolkit: local trust scores, weighted propagation, ranking.

The pipeline computes local trust scores for nodes and edges with a simple
probabilistic classifier, propagates them through the graph with a weighted
random walk or weighted loopy belief propagation, and ranks nodes ascending
by final score so Sybil accounts surface first. A synthetic attack generator
and a sweep harness support robustness experiments.
"""

from .classifier import (LocalModel, TrainConfig, TrainingSet, edge_scores, predict_scores,
                         sample_training_set, select_threshold, train)
from .features import feature_matrix
from .graph import (BENIGN, SYBIL, UNKNOWN, DirectedGraph, Graph, component_census, modularity,
                    mutualize)
from .harness import (PipelineConfig, PipelineResult, StageError, SweepSpec,
                      run_detection_pipeline, run_robustness_sweep)
from .metrics import (RankingReport, accuracy_at_threshold, auc, build_ranking_report,
                      decompose_top_k, top_k_sybil_fraction)
from .propagate import (PropagationConfig, baseline_cia, baseline_integro,
                        baseline_sybilbelief, baseline_sybilrank, integro_edge_weights,
                        weighted_lbp, weighted_random_walk)
from .synth import (NoiseConfig, ScenarioConfig, compose_attack_scenario,
                    preferential_attachment, simulate_edge_trust_scores,
                    simulate_trust_scores)
from .tsvio import load_edge_list

__version__ = "0.1.0"
