from ziskit.ml.ensemble import (
    GRID_FULL,
    GRID_SMALL,
    MLDataset,
    ModelParams,
    TrainedModel,
    fit_model,
    oof_predictions,
    train,
)
from ziskit.ml.folds import stratified_folds
from ziskit.ml.metrics import auc

__all__ = [
    "GRID_FULL", "GRID_SMALL", "MLDataset", "ModelParams", "TrainedModel",
    "auc", "fit_model", "oof_predictions", "stratified_folds", "train",
]
