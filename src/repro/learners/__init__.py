"""Learner substrate: the classifier and regressor catalogues replacing Weka's library.

Everything is implemented from scratch on top of numpy (the environment has no
scikit-learn); the public surface mirrors a small slice of the familiar
estimator API: ``fit`` / ``predict`` / ``predict_proba`` (classifiers) /
``get_params`` / ``set_params``.  :func:`registry_for_task` switches between
the classification catalogue (the paper's Table IV stand-in) and the
regression catalogue.
"""

from .base import BaseClassifier, NotFittedError, check_array, check_X_y, clone
from .bayes import AODE, HNB, BayesNet, NaiveBayes, NaiveBayesMultinomial
from .ensemble import (
    AdaBoostM1,
    Bagging,
    LogitBoost,
    MultiBoostAB,
    RandomCommittee,
    RandomSubSpace,
    RotationForest,
    StackingC,
    VotingEnsemble,
)
from .forest import ExtraTrees, RandomForest
from .lazy import IB1, IBk, KStar, LWL
from .linear import LDA, LogisticRegression, SimpleLogistic
from .metrics import (
    SCORERS,
    Scorer,
    accuracy_score,
    balanced_accuracy_score,
    confusion_matrix,
    default_metric_for_task,
    error_rate,
    f1_score,
    log_loss,
    mean_absolute_error,
    mean_squared_error,
    precision_recall_f1,
    r2_score,
    resolve_scorer,
    root_mean_squared_error,
)
from .misc import ClassificationViaClustering, ClassificationViaRegression, HyperPipes, VFI
from .neural import MLPClassifier, MLPNetwork, MLPRegressor, MultilayerPerceptron, RBFNetwork
from .pipeline import (
    DEFAULT_PIPELINE_STEPS,
    EncoderStep,
    ImputerStep,
    Pipeline,
    PipelineFactory,
    PipelineStepSpec,
    ScalerStep,
    default_pipeline_steps,
    is_pipeline_spec,
    make_pipeline_spec,
    pipeline_context_suffix,
    pipeline_registry,
    registry_context_suffix,
    registry_has_pipelines,
    registry_training_matrix,
    training_matrix,
)
from .preprocessing import (
    LabelEncoder,
    MinMaxScaler,
    OneHotEncoder,
    SimpleImputer,
    StandardScaler,
)
from .registry import AlgorithmRegistry, AlgorithmSpec, CAList, default_registry
from .regression import (
    BaseRegressor,
    DecisionTreeRegressor,
    DummyRegressor,
    ExtraTreesRegressor,
    GradientBoostingRegressor,
    KNeighborsRegressor,
    LassoRegressor,
    RandomForestRegressor,
    RidgeRegressor,
    SVR,
    check_X_y_regression,
)
from .regression_registry import RAList, default_regression_registry, registry_for_task
from .rules import JRip, OneR, PART, Ridor, ZeroR
from .svm import SMO, LibSVMClassifier
from .tree import BFTree, DecisionStump, DecisionTreeClassifier, J48, RandomTree, REPTree, SimpleCart
from .validation import (
    KFold,
    StratifiedKFold,
    cross_val_accuracy,
    cross_val_score,
    cross_val_score_folds,
    plain_folds,
    stratified_folds,
    train_test_split,
)

__all__ = [
    # base
    "BaseClassifier", "NotFittedError", "check_array", "check_X_y", "clone",
    # bayes
    "AODE", "HNB", "BayesNet", "NaiveBayes", "NaiveBayesMultinomial",
    # ensembles
    "AdaBoostM1", "Bagging", "LogitBoost", "MultiBoostAB", "RandomCommittee",
    "RandomSubSpace", "RotationForest", "StackingC", "VotingEnsemble",
    "ExtraTrees", "RandomForest",
    # lazy
    "IB1", "IBk", "KStar", "LWL",
    # linear
    "LDA", "LogisticRegression", "SimpleLogistic",
    # metrics
    "accuracy_score", "balanced_accuracy_score", "confusion_matrix", "error_rate",
    "f1_score", "log_loss", "mean_absolute_error", "mean_squared_error",
    "precision_recall_f1", "r2_score", "root_mean_squared_error",
    "Scorer", "SCORERS", "resolve_scorer", "default_metric_for_task",
    # misc
    "ClassificationViaClustering", "ClassificationViaRegression", "HyperPipes", "VFI",
    # neural
    "MLPClassifier", "MLPNetwork", "MLPRegressor", "MultilayerPerceptron", "RBFNetwork",
    # preprocessing
    "LabelEncoder", "MinMaxScaler", "OneHotEncoder", "SimpleImputer", "StandardScaler",
    # pipelines
    "Pipeline", "PipelineFactory", "PipelineStepSpec", "ImputerStep", "ScalerStep",
    "EncoderStep", "DEFAULT_PIPELINE_STEPS", "default_pipeline_steps",
    "make_pipeline_spec", "pipeline_registry", "is_pipeline_spec",
    "registry_has_pipelines", "pipeline_context_suffix", "registry_context_suffix",
    "training_matrix", "registry_training_matrix",
    # registry
    "AlgorithmRegistry", "AlgorithmSpec", "CAList", "default_registry",
    "RAList", "default_regression_registry", "registry_for_task",
    # regression learners
    "BaseRegressor", "check_X_y_regression", "DummyRegressor", "RidgeRegressor",
    "LassoRegressor", "SVR", "KNeighborsRegressor", "DecisionTreeRegressor",
    "RandomForestRegressor", "ExtraTreesRegressor", "GradientBoostingRegressor",
    # rules
    "JRip", "OneR", "PART", "Ridor", "ZeroR",
    # svm
    "SMO", "LibSVMClassifier",
    # trees
    "BFTree", "DecisionStump", "DecisionTreeClassifier", "J48", "RandomTree",
    "REPTree", "SimpleCart",
    # validation
    "KFold", "StratifiedKFold", "cross_val_accuracy", "cross_val_score",
    "cross_val_score_folds", "plain_folds", "stratified_folds", "train_test_split",
]
