"""Dense networks over the autodiff substrate, Adam, and checkpoint IO.

A network is its parameter dict: a plain ``dict`` of float64 arrays,
name -> array, with ``w{i}`` of shape (fan_in, fan_out) and ``b{i}`` of shape
(1, fan_out).  Hidden layers are rectified and the output is linear.  The
depth is ``len(params) // 2`` and the input width is
``params["w0"].shape[-2]``; nothing else records the layer widths.  Arrays
may carry an extra leading ensemble axis (used by the critic ensemble);
every routine here broadcasts over it transparently.

A checkpoint is one binary file: magic, a JSON header naming each array's
shape and carrying the hyperparameters, then the row-major float64
payload.  It is written to a temporary name and moved into place, so an
interrupted save leaves the previous file, never a partial one, and the
metadata cannot come apart from the arrays it describes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .runlog import replace_atomically

CHECKPOINT_MAGIC = b"SGNET002"


def init_mlp_params(sizes, rng: np.random.Generator, ensemble: int | None = None) -> dict:
    """He-uniform initialisation; the output layer gets a smaller gain.

    ``sizes`` lists the input, at least one hidden, and the output width.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3:
        raise ValueError("a network needs input, at least one hidden, and output widths")
    if any(s < 1 for s in sizes):
        raise ValueError("all widths must be >= 1")
    arrays = {}
    lead = () if ensemble is None else (int(ensemble),)
    last = len(sizes) - 2
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / fan_in)
        if i == last:
            bound *= 0.01  # keep initial outputs near zero
        arrays[f"w{i}"] = rng.uniform(-bound, bound, size=lead + (fan_in, fan_out))
        arrays[f"b{i}"] = np.zeros(lead + (1, fan_out))
    return arrays


def forward(params: dict, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass on plain arrays, with no tape.

    Accepts a single input vector or a batch; the output matches.  It runs
    the same numpy operations as :func:`forward_tape`, so the outputs are
    bit-equal.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    width = params["w0"].shape[-2]
    if x.shape[-1] != width:
        raise ValueError(f"input width {x.shape[-1]} does not match the network ({width})")
    h = np.atleast_2d(x)
    last = len(params) // 2 - 1
    for i in range(last + 1):
        h = h @ params[f"w{i}"] + params[f"b{i}"]
        if i < last:
            h = np.maximum(h, 0.0)
    return h[0] if single else h


def forward_tape(params: dict, x: Tensor) -> Tensor:
    """Forward pass through Tensors for gradient computation."""
    h = x
    last = len(params) // 2 - 1
    for i in range(last + 1):
        h = h @ params[f"w{i}"] + params[f"b{i}"]
        if i < last:
            h = h.relu()
    return h


def gradients(params: dict, x: np.ndarray, loss_fn) -> dict:
    """Exact reverse-mode gradients of a scalar loss of the network outputs.

    ``loss_fn`` receives the output Tensor and must build a scalar Tensor.
    Returns a dict of arrays shaped like the parameters.
    """
    tensors = {
        name: Tensor(arr, requires_grad=True) for name, arr in params.items()
    }
    out = forward_tape(tensors, Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64))))
    loss = loss_fn(out)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ValueError("loss_fn must produce a scalar Tensor")
    loss.backward()
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in tensors.items()
    }


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, params: dict):
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.t = 0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1.0e-8


def adam_update(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """Bias-corrected adaptive-moment step (updates arrays in place)."""
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1**state.t
    correction2 = 1.0 - ADAM_BETA2**state.t
    for name, arr in params.items():
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != arr.shape:
            raise ValueError(
                f"gradient shape mismatch for {name!r}: {grad.shape} != {arr.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoint serialisation
# ---------------------------------------------------------------------------

def save_checkpoint(path, arrays: dict, meta: dict | None = None) -> None:
    """Write arrays and metadata to one file, replaced whole."""
    arrays = {str(name): np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
    header = {
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        "meta": meta or {},
    }
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    # tobytes() always emits C order, and 0-d arrays stay 0-d
    payload = b"".join(arr.tobytes() for arr in arrays.values())
    replace_atomically(
        Path(path), CHECKPOINT_MAGIC + len(text).to_bytes(8, "little") + text + payload
    )


def load_checkpoint(path):
    """Read a checkpoint; returns ``(arrays, meta)``.

    Raises ``ValueError`` unless the file is exactly one header plus the
    payload it declares: bad magic, a malformed header, a truncated file
    and trailing bytes are all rejected.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint file (bad magic)")
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(blob[start - 8 : start], "little")
    if len(blob) < end:  # end >= start: a file cut in the length field fails too
        raise ValueError(f"{path} is truncated (in the header)")
    try:
        header = json.loads(blob[start:end])
        meta = header["meta"]
        shapes = [(str(name), tuple(int(n) for n in shape)) for name, shape in header["arrays"]]
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path} has a malformed header") from exc
    if not isinstance(meta, dict) or any(n < 0 for _, shape in shapes for n in shape):
        raise ValueError(f"{path} has a malformed header")
    sizes = [math.prod(shape) for _, shape in shapes]
    expected = end + 8 * sum(sizes)
    if len(blob) < expected:
        raise ValueError(f"{path} is truncated: {len(blob)} bytes, expected {expected}")
    if len(blob) > expected:
        raise ValueError(f"{path} has {len(blob) - expected} trailing bytes")
    arrays = {}
    offset = end
    for (name, shape), size in zip(shapes, sizes):
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += size * 8
        arrays[name] = arr.copy()
    return arrays, meta
