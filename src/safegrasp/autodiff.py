"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 array and records the operations applied to
it; ``backward()`` on a scalar result, or ``backward(grad)`` from a given
cotangent, accumulates exact gradients into every reachable tensor created
with ``requires_grad=True``.  Graph recording is
skipped entirely when no operand requires gradients, so the same code path
doubles as a plain (and cheap) numpy forward evaluator.

Only the small set of operations needed by the actor/critic networks is
implemented; everything broadcasts like numpy, with gradients summed back to
the parent shapes.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjps: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, vjps) -> "Tensor":
        # op results are float64 already; reductions give numpy scalars
        out = Tensor.__new__(Tensor)
        out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
        out.grad = None
        tracked = [(p, v) for p, v in zip(parents, vjps) if p.requires_grad]
        out.requires_grad = bool(tracked)
        if tracked:
            out._parents = tuple(p for p, _ in tracked)
            out._vjps = tuple(v for _, v in tracked)
        else:
            out._parents = out._vjps = ()
        return out

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        Without ``grad`` the tensor must be a scalar and the seed is 1;
        otherwise ``grad`` (copied) is the cotangent of ``self``.  Only leaves
        keep a gradient: each inner node's ``grad`` is released once passed
        on, so a second ``backward`` on the same graph adds to the leaves
        exactly what a backward through a freshly built copy would.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() requires a scalar tensor")
            seed = np.ones_like(self.data)
        else:
            seed = np.array(grad, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"grad has shape {seed.shape}, the tensor {self.data.shape}"
                )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        if self.grad is None:
            self.grad = seed
        else:
            self.grad += seed
        for node in reversed(topo):
            own = node.grad
            if own is None or not node._parents:
                continue
            node.grad = None
            taken = False
            for parent, vjp in zip(node._parents, node._vjps):
                contribution = vjp(own)
                if parent.grad is None:
                    # take fresh arrays, and this node's own array once;
                    # copy views and any later pass-through of it
                    if contribution is own:
                        if taken:
                            contribution = contribution.copy()
                        taken = True
                    elif contribution.base is not None:
                        contribution = contribution.copy()
                    parent.grad = contribution
                else:
                    parent.grad += contribution

    # -- operations ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        data = self.data + other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g, s=self.data.shape: _unbroadcast(g, s),
                lambda g, s=other.data.shape: _unbroadcast(g, s),
            ),
        )

    def __sub__(self, other):
        other = as_tensor(other)
        data = self.data - other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g, s=self.data.shape: _unbroadcast(g, s),
                lambda g, s=other.data.shape: _unbroadcast(-g, s),
            ),
        )

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        data = self.data * other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g, o=other.data, s=self.data.shape: _unbroadcast(g * o, s),
                lambda g, o=self.data, s=other.data.shape: _unbroadcast(g * o, s),
            ),
        )

    def __truediv__(self, other):
        other = as_tensor(other)
        data = self.data / other.data
        return Tensor._make(
            data,
            (self, other),
            (
                lambda g, o=other.data, s=self.data.shape: _unbroadcast(g / o, s),
                lambda g, a=self.data, o=other.data, s=other.data.shape: _unbroadcast(
                    -g * a / (o * o), s
                ),
            ),
        )

    def __matmul__(self, other):
        other = as_tensor(other)
        data = self.data @ other.data
        a, b = self.data, other.data

        def vjp_a(g, a=a, b=b):
            return _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)

        def vjp_b(g, a=a, b=b):
            return _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)

        return Tensor._make(data, (self, other), (vjp_a, vjp_b))

    def __getitem__(self, key):
        data = self.data[key]

        def vjp(g, key=key, shape=self.data.shape):
            out = np.zeros(shape)
            out[key] = g
            return out

        return Tensor._make(data, (self,), (vjp,))

    def relu(self):
        mask = self.data > 0.0
        return Tensor._make(
            np.maximum(self.data, 0.0), (self,), (lambda g, m=mask: g * m,)
        )

    def tanh(self):
        out = np.tanh(self.data)
        return Tensor._make(out, (self,), (lambda g, o=out: g * (1.0 - o * o),))

    def exp(self):
        out = np.exp(self.data)
        return Tensor._make(out, (self,), (lambda g, o=out: g * o,))

    def log(self):
        return Tensor._make(
            np.log(self.data), (self,), (lambda g, d=self.data: g / d,)
        )

    def square(self):
        return Tensor._make(
            self.data * self.data, (self,), (lambda g, d=self.data: 2.0 * g * d,)
        )

    def clip(self, low: float, high: float):
        mask = (self.data >= low) & (self.data <= high)
        return Tensor._make(
            np.clip(self.data, low, high), (self,), (lambda g, m=mask: g * m,)
        )

    def sum(self, axis=None):
        data = self.data.sum(axis=axis)

        def vjp(g, axis=axis, shape=self.data.shape):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()

        return Tensor._make(data, (self,), (vjp,))

    def mean(self, axis=None):
        data = self.data.mean(axis=axis)
        count = self.data.size / data.size

        def vjp(g, axis=axis, shape=self.data.shape, n=count):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape) / n

        return Tensor._make(data, (self,), (vjp,))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    vjps = []
    for i, t in enumerate(tensors):
        def vjp(g, lo=offsets[i], hi=offsets[i + 1], axis=axis):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        vjps.append(vjp)
    return Tensor._make(data, tuple(tensors), tuple(vjps))
