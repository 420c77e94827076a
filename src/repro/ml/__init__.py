"""From-scratch numpy ML library (DNN, SVM, KMeans, LSTM + training)."""

from .activations import (
    ACTIVATIONS,
    ActivationSpec,
    activation,
    leaky_relu,
    relu,
    sigmoid,
    sigmoid_piecewise,
    sigmoid_taylor,
    softmax,
    tanh,
    tanh_piecewise,
    tanh_taylor,
)
from .dnn import DNN, anomaly_detection_dnn, iot_classifier_dnn
from .kmeans import KMeans
from .layers import Dense
from .lstm import LSTM, indigo_lstm
from .metrics import (
    accuracy,
    detection_rate,
    f1_score,
)
from .svm import RBFKernelSVM
from .training import (
    SGD,
    Adam,
    binary_cross_entropy,
    iterate_minibatches,
    softmax_cross_entropy,
)

__all__ = [
    "ACTIVATIONS",
    "ActivationSpec",
    "activation",
    "leaky_relu",
    "relu",
    "sigmoid",
    "sigmoid_piecewise",
    "sigmoid_taylor",
    "softmax",
    "tanh",
    "tanh_piecewise",
    "tanh_taylor",
    "DNN",
    "anomaly_detection_dnn",
    "iot_classifier_dnn",
    "KMeans",
    "Dense",
    "LSTM",
    "indigo_lstm",
    "accuracy",
    "detection_rate",
    "f1_score",
    "RBFKernelSVM",
    "SGD",
    "Adam",
    "binary_cross_entropy",
    "iterate_minibatches",
    "softmax_cross_entropy",
]
