"""Core Aequus fairshare machinery: policies, usage, the fairshare kernel,
vectors, and projections (the paper's primary contribution)."""

from .decay import (
    DecayFunction,
    ExponentialDecay,
    LinearDecay,
    NoDecay,
    SlidingWindowDecay,
    StepDecay,
)
from .distance import (
    FairshareParameters,
    absolute_distance,
    balance_score,
    combined_priority,
    relative_distance,
)
from .flat import FlatFairshare, FlatPolicy, compute_fairshare_flat
from .policy import PolicyError, PolicyNode, PolicyTree, parse_policy
from .projection import (
    BitwiseVectorProjection,
    DictionaryOrderingProjection,
    PercentalProjection,
    Projection,
    make_projection,
)
from .tree import Tree, TreeNode
from .usage import UsageHistogram, UsageRecord
from .vector import FairshareVector
from .vectorfactors import (
    AgeVectorFactor,
    CompositeVectorPriority,
    JobSizeVectorFactor,
    QosVectorFactor,
    VectorFactor,
)

__all__ = [
    "DecayFunction", "ExponentialDecay", "LinearDecay", "NoDecay",
    "SlidingWindowDecay", "StepDecay",
    "FairshareParameters", "absolute_distance", "balance_score",
    "combined_priority", "relative_distance",
    "FlatFairshare", "FlatPolicy", "compute_fairshare_flat",
    "PolicyError", "PolicyNode", "PolicyTree", "parse_policy",
    "BitwiseVectorProjection", "DictionaryOrderingProjection",
    "PercentalProjection", "Projection", "make_projection",
    "Tree", "TreeNode",
    "UsageHistogram", "UsageRecord",
    "FairshareVector",
    "AgeVectorFactor", "CompositeVectorPriority", "JobSizeVectorFactor",
    "QosVectorFactor", "VectorFactor",
]
