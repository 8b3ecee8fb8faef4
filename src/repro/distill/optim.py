"""Optimisers.

The paper trains with SGD (learning rate 0.1 for compression, 0.005 for the
NAS search, §VI-B); we provide SGD with optional momentum and weight decay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.distill.tensor import Tensor
from repro.errors import ConfigurationError


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ConfigurationError("SGD received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update; parameters with no gradient are left untouched."""
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(id(parameter))
                if velocity is None:
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(parameter)] = velocity
                grad = velocity
            parameter.data = parameter.data - self.lr * grad
