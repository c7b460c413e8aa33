"""Streaming maximization of non-negative submodular functions under
independence-system constraints."""

from .core import (EPS, ContractViolationError, DuplicateElementError,
                   ElementSet, GroundSetError, NumericError, Objective,
                   SizeLimitError, UnsupportedConstraintError)
from .objectives import (CutGraph, KeywordTable, ReservoirConfig,
                         load_features, load_keyword_table,
                         make_coverage_minus_dispersion, make_directed_cut,
                         make_facility_location, make_logdet, make_modular,
                         make_sqrt_coverage, similarity_from_features)
from .constraints import (IndependenceSystem, cardinality_system, exact_rho,
                          intersect, knapsack_system, labeled_limit_system,
                          make_system, node_independent_set_system,
                          planarity_system)
from .planarity import planarity_check
from .offline import (brute_force_opt, double_greedy, repeated_greedy,
                      unweighted_greedy, weighted_greedy)
from .streaming import (AdaptiveSieve, AuditReport, AutoThresholdSieve,
                        CascadeTrace, StreamingComponent, StreamOutcome,
                        ThresholdSieve, cascade_run, contract_audit)
from .baselines import (GreedyStream, PreemptionStream, RatioSwapStream,
                        SieveGuessStream, preemption_stream,
                        ratio_swap_stream, sieve_streaming, streaming_greedy)
from .counterexamples import (CounterInstance, CounterReport, build_g1,
                              build_g2, verify_preemption_counterexample,
                              verify_ratio_swap_counterexample, w_sequence,
                              w_sequence_closed_form, w_sequence_total)

__version__ = "0.1.0"
