"""Multi-domain recommendation with disentangled embeddings and random-walk
domain alignment: graph encoders, pairwise-ranking training, cross-domain
pair mining, and an evaluation toolkit."""

from .edmodel import EDModel, ModelSpec, init_model, load_model, save_model, variant_spec
from .encoders import EmbeddingTable, GRecConfig, grec_propagate
from .evalkit import CaseSet, SplitDataset, auc, evaluate_all, recall_at_1, split
from .mdgraph import (
    AnchorSet,
    DomainGraph,
    Interaction,
    MultiDomainDataset,
    NodeId,
    NodeKind,
    anchors,
    ingest,
    ingest_file,
    overlap_ratio,
)
from .synthgen import SynthSpec, generate
from .trainer import TrainConfig, Triplet, bpr_loss, gradients, total_loss, train
from .walker import SimilarPairSet, StopCountVector, WalkConfig, mine_pairs, node_similarity, run_walks

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "CaseSet",
    "DomainGraph",
    "EDModel",
    "EmbeddingTable",
    "GRecConfig",
    "Interaction",
    "ModelSpec",
    "MultiDomainDataset",
    "NodeId",
    "NodeKind",
    "SimilarPairSet",
    "SplitDataset",
    "StopCountVector",
    "SynthSpec",
    "TrainConfig",
    "Triplet",
    "WalkConfig",
    "anchors",
    "auc",
    "bpr_loss",
    "evaluate_all",
    "generate",
    "gradients",
    "grec_propagate",
    "ingest",
    "ingest_file",
    "init_model",
    "load_model",
    "mine_pairs",
    "node_similarity",
    "overlap_ratio",
    "recall_at_1",
    "run_walks",
    "save_model",
    "split",
    "total_loss",
    "train",
    "variant_spec",
]
