"""Multi-domain recommendation with disentangled embeddings and random-walk
domain alignment: graph encoders, pairwise-ranking training, cross-domain
pair mining, and an evaluation toolkit."""

from .edmodel import EDModel, ModelSpec, init_model, load_model, save_model, variant_spec
from .encoders import EmbeddingTable, GRecConfig, grec_propagate
from .evalkit import CaseSet, SplitDataset, evaluate_all, split
from .mdgraph import (
    DomainGraph,
    MultiDomainDataset,
    NodeId,
    NodeKind,
    anchors,
    ingest,
    ingest_file,
)
from .synthgen import SynthSpec, generate
from .trainer import TrainConfig, loss_and_gradients, train
from .walker import SimilarPairSet, WalkConfig, mine_pairs, run_walks

__version__ = "0.1.0"

__all__ = [
    "CaseSet",
    "DomainGraph",
    "EDModel",
    "EmbeddingTable",
    "GRecConfig",
    "ModelSpec",
    "MultiDomainDataset",
    "NodeId",
    "NodeKind",
    "SimilarPairSet",
    "SplitDataset",
    "SynthSpec",
    "TrainConfig",
    "WalkConfig",
    "anchors",
    "evaluate_all",
    "generate",
    "grec_propagate",
    "ingest",
    "ingest_file",
    "init_model",
    "load_model",
    "loss_and_gradients",
    "mine_pairs",
    "run_walks",
    "save_model",
    "split",
    "train",
    "variant_spec",
]
