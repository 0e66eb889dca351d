"""AEkNN: k-nearest-neighbor classification on autoencoder-reduced features,
with PCA/LDA/identity baselines, cross-validated evaluation and the
nonparametric statistics used to compare configurations."""

__version__ = "0.1.0"

from .autoencoder import (
    ActivationKind,
    AutoencoderStack,
    TrainConfig,
    build_stack,
    encode,
    layer_size,
)
from .dataset import Dataset, FoldPlan, NormalizationStats, load_csv, make_folds
from .knn import KnnModel, classify_batch, neighbors
from .metrics import ConfusionMatrix, accuracy, auc, f_score, roc_auc_binary
from .pipeline import CvResult, FoldResult, PipelineConfig, fit_reducer, run_cv, run_fold
from .reducers import Reducer, fit_lda, fit_pca
from .stats import ResultMatrix, TestReport, chi_square_sf, friedman, wilcoxon_signed_rank

__all__ = [
    "__version__",
    "ActivationKind",
    "AutoencoderStack",
    "TrainConfig",
    "build_stack",
    "encode",
    "layer_size",
    "Dataset",
    "FoldPlan",
    "NormalizationStats",
    "load_csv",
    "make_folds",
    "KnnModel",
    "classify_batch",
    "neighbors",
    "ConfusionMatrix",
    "accuracy",
    "auc",
    "f_score",
    "roc_auc_binary",
    "CvResult",
    "FoldResult",
    "PipelineConfig",
    "run_cv",
    "run_fold",
    "Reducer",
    "fit_lda",
    "fit_pca",
    "fit_reducer",
    "ResultMatrix",
    "TestReport",
    "chi_square_sf",
    "friedman",
    "wilcoxon_signed_rank",
]
