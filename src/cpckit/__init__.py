"""Complexity-perception classification toolkit.

Scores training samples by how many weak ensemble members get them right,
splits the training set into easy and difficult subspaces at a threshold,
fits one expert per subspace, and routes test queries with a per-query
nearest-neighbor discriminator.

The top level holds only the names the README's library examples import;
everything else is imported from its module (cpckit.cpc, cpckit.mlp, ...).
"""

from .classifiers import softmax_spec
from .cpc import CpcConfig, cpc_predict_many, train_cpc
from .dataset import generate_two_regime
from .harness import PipelineConfig, cross_validate, theta_sweep
