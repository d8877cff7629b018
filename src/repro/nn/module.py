"""Module / Parameter abstractions (a minimal ``torch.nn.Module`` analogue).

A :class:`Module` discovers its :class:`Parameter` attributes and child
modules reflectively, supports ``train()``/``eval()`` mode switching,
``zero_grad()`` and a flat ``state_dict`` for checkpointing the best model
during early stopping (the paper saves the best validation model).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that always requires gradients (a learnable weight)."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and child :class:`Module` instances
    as attributes; :meth:`parameters` finds them recursively.  The boolean
    :attr:`training` flag toggles stochastic behaviour such as dropout.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # reflection
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        """Return all learnable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------ #
    # state handling
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and all descendants."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation (inference) mode."""
        return self.train(False)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name → copied-array snapshot of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict` (strict)."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, array in state.items():
            target = params[name]
            if target.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {target.data.shape}, got {array.shape}"
                )
            target.data = array.copy()

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Container holding an ordered list of sub-modules."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self.items: list[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        """Add a module to the end of the list."""
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, idx: int) -> Module:
        return self.items[idx]

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")
