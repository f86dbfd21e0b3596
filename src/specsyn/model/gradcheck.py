"""Finite-difference verification of the hand-derived gradients."""

import numpy as np

from .network import Batch, Model, ModelError


def grad_check(
    model: Model,
    batch: Batch,
    weights,
    epsilon: float = 1e-5,
    names=None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs every element of every parameter tensor (or of the named
    subset) by +/- epsilon; relative error per element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). Every
    parameter must be float64: at float32 resolution the differences
    measure rounding, not the gradient.
    """
    for name in sorted(model.params):
        dtype = model.params[name].dtype
        if dtype != np.float64:
            raise ModelError(f"grad_check needs float64 parameters; {name} is {dtype}")
    _, grads = model.loss_and_grads(batch, weights)
    worst = 0.0
    for name in names if names is not None else sorted(model.params):
        tensor = model.params[name]
        analytic = grads[name].reshape(-1)
        flat = tensor.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + epsilon
            upper = model.losses(batch, weights)["total"]
            flat[j] = original - epsilon
            lower = model.losses(batch, weights)["total"]
            flat[j] = original
            numeric = (upper - lower) / (2.0 * epsilon)
            scale = max(abs(analytic[j]), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic[j] - numeric) / scale)
    return worst
