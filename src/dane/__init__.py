"""Domain-adaptive node embeddings for pairs of unconnected graphs.

One encoder, shared across both graphs, maps node features into a common
space; its objective combines per-graph first-order structure preservation
with a least-squares adversarial term that pulls the two embedding clouds
toward one distribution, so a classifier fit on labeled source nodes
transfers to the unlabeled target graph.
"""

from .compute import GradTape, Tensor2, backward
from .errors import DaneError
from .eval import (
    LabelSet,
    TransferReport,
    distribution_distance,
    evaluate_transfer,
    project_2d,
    train_classifier,
)
from .graph import (
    Graph,
    GraphPair,
    NegativeSampler,
    PropagationMatrix,
    build_propagation,
    load_graph,
    load_labels,
)
from .model import (
    DiscriminatorParams,
    EdgeBatch,
    EncoderParams,
    adversarial_loss,
    discriminator_loss,
    edge_loss,
    encode,
    gcn_loss,
    load_checkpoint,
    save_checkpoint,
    total_loss,
)
from .synth import SynthSpec, generate_pair
from .train import FitResult, TrainConfig, TrainLog, fit

__version__ = "0.1.0"

__all__ = [
    "DaneError",
    "DiscriminatorParams",
    "EdgeBatch",
    "EncoderParams",
    "FitResult",
    "GradTape",
    "Graph",
    "GraphPair",
    "LabelSet",
    "NegativeSampler",
    "PropagationMatrix",
    "SynthSpec",
    "Tensor2",
    "TrainConfig",
    "TrainLog",
    "TransferReport",
    "adversarial_loss",
    "backward",
    "build_propagation",
    "discriminator_loss",
    "distribution_distance",
    "edge_loss",
    "encode",
    "evaluate_transfer",
    "fit",
    "gcn_loss",
    "generate_pair",
    "load_checkpoint",
    "load_graph",
    "load_labels",
    "project_2d",
    "save_checkpoint",
    "total_loss",
    "train_classifier",
    "__version__",
]
