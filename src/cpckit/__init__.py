"""Complexity-perception classification toolkit.

Scores training samples by how many weak ensemble members get them right,
splits the training set into easy and difficult subspaces at a threshold,
fits one expert per subspace, and routes test queries with a per-query
nearest-neighbor discriminator.
"""

from .classifiers import (
    ClassifierSpec,
    ForestParams,
    KnnParams,
    SoftmaxParams,
    SvmParams,
    TrainedClassifier,
    fit,
    forest_spec,
    knn_spec,
    softmax_spec,
    svm_spec,
    with_seed,
)
from .cpc import (
    BaseEnsemble,
    CpcConfig,
    CpcModel,
    EaseScores,
    RoutedPrediction,
    SubspacePartition,
    compute_ease,
    cpc_predict,
    cpc_predict_many,
    fit_cpc,
    fit_cpc_many,
    partition,
    train_base_ensemble,
    train_cpc,
)
from .dataset import (
    FoldAssignment,
    LabeledDataset,
    SplitSpec,
    generate_two_regime,
    kfold,
    load_dataset,
    split,
    take,
    two_regime_centers,
    write_dataset,
)
from .harness import (
    PipelineConfig,
    SweepResult,
    confusion,
    cross_validate,
    evaluate,
    theta_sweep,
)
from .mlp import (
    BlockSpec,
    MlpModel,
    TrainConfig,
    build_mlp,
    extract_features,
    fit_extractor,
    parse_arch,
    train,
)
from .preprocess import (
    WhiteningTransform,
    apply_whitening,
    fit_zca,
    normalize_samples,
)

__version__ = "0.1.0"
