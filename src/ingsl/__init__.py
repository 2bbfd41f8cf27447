"""Diversity-guided edge pruning for embedding-based graph structure learning.

The package bundles a minimal reverse-mode tensor engine, a graph data model
with a text bundle format, a two-layer GCN, the similarity-based structure
learner, the diversity-guided pruner with its mutual-information objective,
and randomized verifiers for the method's two redundancy bounds.
"""

__version__ = "0.1.0"

from . import analysis, errors, gnn, graph, gsl, pruning, tensor
from .analysis import (
    LemmaReport,
    avg_pairwise_similarity,
    complexity_estimate,
    lemma1_bound,
    lemma1_check,
    lemma2_check,
    redundancy_profile,
)
from .gnn import (
    GcnParams,
    TrainState,
    accuracy,
    adam_step,
    flops_estimate,
    gcn_forward,
    make_gcn_params,
    spectral_norm,
    task_loss,
)
from .graph import (
    Graph,
    SparseAdjacency,
    edge_homophily,
    generate_sbm,
    inject_structural_noise,
    load_bundle,
    mask_features,
    normalize_adjacency,
    save_bundle,
)
from .gsl import (
    CandidateGraph,
    build_candidates,
    encode_structure,
    feature_smoothness,
    fuse_with_original,
)
from .pruning import (
    KEEP_ALL,
    DiversityScorer,
    TrainConfig,
    TrainResult,
    diversity_scores,
    keep_count,
    make_scorer,
    mi_loss,
    prune,
    sample_batch,
    select_threshold,
    train_ingsl,
)
from .tensor import Tape, Tensor, backward, gradient_check
