"""Autodiff substrate, dense nets, Adam, and checkpoint IO."""

import json

import numpy as np
import pytest

from safegrasp import runlog
from safegrasp.autodiff import Tensor, concat
from safegrasp.nn import (
    CHECKPOINT_MAGIC,
    AdamState,
    adam_update,
    forward,
    forward_tape,
    gradients,
    init_mlp_params,
    load_checkpoint,
    save_checkpoint,
)


def min_kink_clearance(params, x: np.ndarray) -> float:
    """Smallest |rectifier preactivation| along the forward pass."""
    clearance = np.inf
    h = np.atleast_2d(x)
    n_layers = len(params) // 2
    for i in range(n_layers):
        h = h @ params[f"w{i}"] + params[f"b{i}"]
        if i < n_layers - 1:
            clearance = min(clearance, float(np.min(np.abs(h))))
            h = np.maximum(h, 0.0)
    return clearance


def draw_kink_clear_input(params, rng, batch: int, margin: float = 1e-3):
    """Sample inputs where the central-difference oracle is valid.

    Central differences are only trustworthy when no rectifier kink lies
    within the perturbation span, so inputs too close to one are redrawn.
    """
    for _ in range(200):
        x = rng.normal(size=(batch, params["w0"].shape[-2]))
        if min_kink_clearance(params, x) > margin:
            return x
    raise AssertionError("could not find a kink-clear input")


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return grad


class TestAutodiffOps:
    def test_broadcast_add_and_mul(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        ((a * b) + b).sum().backward()
        assert np.allclose(a.grad, np.tile([1.0, 2.0, 3.0], (2, 1)))
        assert np.allclose(b.grad, (a.data.sum(axis=0) + 2.0).reshape(1, 3))

    def test_matmul_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))

        def loss_value():
            return float(((a_data @ b_data) ** 2).sum())

        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ((a @ b).square()).sum().backward()
        assert np.allclose(a.grad, finite_difference(loss_value, a_data), atol=1e-6)
        assert np.allclose(b.grad, finite_difference(loss_value, b_data), atol=1e-6)

    def test_stacked_matmul_broadcasts_and_reduces(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(5, 3))
        w_data = rng.normal(size=(2, 3, 4))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        (x @ w).sum().backward()

        def loss_value():
            return float((x_data @ w_data).sum())

        assert np.allclose(x.grad, finite_difference(loss_value, x_data), atol=1e-6)
        assert np.allclose(w.grad, finite_difference(loss_value, w_data), atol=1e-6)

    def test_elementwise_chain(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(4, 3))
        x = Tensor(x_data, requires_grad=True)
        loss = ((x.tanh().exp() / (x.square() + 2.0)).relu()).mean()
        loss.backward()

        def loss_value():
            return float(
                np.mean(
                    np.maximum(np.exp(np.tanh(x_data)) / (x_data**2 + 2.0), 0.0)
                )
            )

        assert np.allclose(x.grad, finite_difference(loss_value, x_data), atol=1e-6)

    def test_concat_and_getitem(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        joined = concat([a, b], axis=1)
        joined[:, 1:4].sum().backward()
        assert np.array_equal(a.grad, np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert np.array_equal(b.grad, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))

    def test_clip_blocks_gradient_outside_range(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))

    def test_shared_parent_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        ((x * x) + x).sum().backward()
        assert x.grad[0] == pytest.approx(2.0 * 3.0 + 1.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_backward_grad_must_match_the_tensor_shape(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 2.0).backward(np.ones(4))


CRITIC = (21, 64, 64, 25)  # the default critic widths


def critic_inputs(seed: int):
    """Ensemble parameters, a batch of inputs and an output cotangent."""
    rng = np.random.default_rng(seed)
    params = init_mlp_params(CRITIC, rng, ensemble=2)
    x = rng.normal(size=(32, 21))
    cotangent = rng.normal(size=(2, 32, 25)) * 1e-3
    return params, x, cotangent


def tape_critic(leaves: dict, x: np.ndarray) -> Tensor:
    return forward_tape(leaves, Tensor(x))


def fresh_leaves(params: dict) -> dict:
    return {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}


def leaf_bytes(leaves: dict) -> dict:
    return {name: t.grad.tobytes() for name, t in leaves.items()}


class TestBackwardFromCotangent:
    def test_matches_a_scalar_node_with_that_local_gradient(self):
        # the loss route the critic update took before: a scalar node whose
        # only vector-Jacobian product multiplies by the given cotangent
        params, x, cotangent = critic_inputs(20)
        leaves = fresh_leaves(params)
        tape_critic(leaves, x).backward(cotangent)
        direct = leaf_bytes(leaves)
        leaves = fresh_leaves(params)
        preds = tape_critic(leaves, x)
        loss = Tensor._make(np.float64(0.5), (preds,), (lambda g: g * cotangent,))
        loss.backward()
        assert leaf_bytes(leaves) == direct

    def test_leaves_the_callers_array_alone(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        ((a + b) + a).backward(g)
        assert np.array_equal(g, [1.0, 2.0, 3.0])
        assert not np.shares_memory(a.grad, g) and not np.shares_memory(b.grad, g)
        assert np.array_equal(a.grad, 2.0 * g)
        assert np.array_equal(b.grad, g)

    def test_pass_through_gradients_are_not_aliased(self):
        # a + b hands the same cotangent array to both parents
        a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 5.0
        assert np.array_equal(b.grad, np.ones((2, 2)))
        # the same below a node with a second consumer
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        h = x + y
        ((h + h) * 3.0).sum().backward()
        assert not np.shares_memory(x.grad, y.grad)
        assert np.array_equal(x.grad, np.full(3, 6.0))
        assert np.array_equal(y.grad, np.full(3, 6.0))

    def test_leaf_on_two_paths_accumulates(self):
        rng = np.random.default_rng(21)
        x_data = rng.normal(size=(3, 4))
        w_data = rng.normal(size=(4, 4))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        # x enters through a pass-through add, a product and a matmul
        loss = ((x + x @ w) * x).sum()
        loss.backward()

        def loss_value():
            return float(np.sum((x_data + x_data @ w_data) * x_data))

        assert np.allclose(x.grad, finite_difference(loss_value, x_data), atol=1e-6)
        assert np.allclose(w.grad, finite_difference(loss_value, w_data), atol=1e-6)
        doubled = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (doubled + doubled).backward(np.array([0.5, 4.0]))
        assert np.array_equal(doubled.grad, [1.0, 8.0])

    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "cotangent"])
    def test_second_backward_adds_what_a_fresh_graph_would(self, scalar):
        params, x, cotangent = critic_inputs(22)

        def root_and_seed(leaves):
            preds = tape_critic(leaves, x)
            return ((preds * cotangent).sum(), None) if scalar else (preds, cotangent)

        leaves = fresh_leaves(params)
        root, seed = root_and_seed(leaves)
        root.backward(seed)
        root.backward(seed)
        again = fresh_leaves(params)
        for _ in range(2):
            root, seed = root_and_seed(again)
            root.backward(seed)
        assert leaf_bytes(leaves) == leaf_bytes(again)
        once = fresh_leaves(params)
        root, seed = root_and_seed(once)
        root.backward(seed)
        assert leaf_bytes(leaves) != leaf_bytes(once)


class TestForward:
    def test_zero_parameters_zero_output(self):
        params = {
            "w0": np.zeros((3, 4)), "b0": np.zeros((1, 4)),
            "w1": np.zeros((4, 2)), "b1": np.zeros((1, 2)),
        }
        assert np.array_equal(forward(params, np.array([1.0, -2.0, 3.0])), np.zeros(2))

    def test_affine_layer_matches_hand_multiply(self):
        rng = np.random.default_rng(5)
        params = init_mlp_params((2, 3, 2), rng)
        x = np.array([0.3, -0.7])
        hidden = np.maximum(x @ params["w0"] + params["b0"][0], 0.0)
        expected = hidden @ params["w1"] + params["b1"][0]
        assert np.allclose(forward(params, x), expected, atol=1e-14)

    def test_two_layer_matches_independent_evaluator(self):
        rng = np.random.default_rng(6)
        params = init_mlp_params((4, 8, 8, 3), rng)
        x = rng.normal(size=(5, 4))

        # straight-line evaluator written without the library helpers
        h = x
        for i in range(2):
            h = np.maximum(h @ params[f"w{i}"] + params[f"b{i}"], 0.0)
        expected = h @ params["w2"] + params["b2"]
        assert np.allclose(forward(params, x), expected, atol=1e-14)

    def test_repeat_calls_bitwise_identical(self):
        params = init_mlp_params((3, 8, 2), np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(6, 3))
        assert forward(params, x).tobytes() == forward(params, x).tobytes()

    @pytest.mark.parametrize(
        "sizes,ensemble,x_shape",
        [
            ((5, 16, 16, 4), None, (5,)),
            ((5, 16, 16, 4), None, (7, 5)),
            ((6, 16, 16, 25), 2, (7, 6)),
            ((6, 16, 16, 25), 2, (6,)),
        ],
        ids=["1d", "batch", "ensemble", "ensemble-1d"],
    )
    def test_matches_tape_bit_for_bit(self, sizes, ensemble, x_shape):
        rng = np.random.default_rng(11)
        params = init_mlp_params(sizes, rng, ensemble=ensemble)
        n_layers = len(params) // 2
        # unit-scale outputs, so relu kinks are crossed
        for i in range(n_layers):
            params[f"b{i}"] = rng.normal(size=params[f"b{i}"].shape)
        params[f"w{n_layers - 1}"] = params[f"w{n_layers - 1}"] * 100.0
        x = rng.normal(size=x_shape)
        tensors = {name: Tensor(arr) for name, arr in params.items()}
        taped = forward_tape(tensors, Tensor(np.atleast_2d(x))).data
        expected = taped[0] if x.ndim == 1 else taped
        out = forward(params, x)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_shape_mismatch_raises(self):
        params = init_mlp_params((3, 4, 2), np.random.default_rng(9))
        with pytest.raises(ValueError):
            forward(params, np.zeros(5))

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            init_mlp_params((3, 2), np.random.default_rng(0))  # no hidden layer
        with pytest.raises(ValueError):
            init_mlp_params((3, 0, 2), np.random.default_rng(0))


class TestGradients:
    def test_linear_sum_has_closed_form(self):
        params = {
            "w0": np.eye(3, 4), "b0": np.full((1, 4), 5.0),
            "w1": np.zeros((4, 4)), "b1": np.zeros((1, 4)),
        }
        x = np.array([[1.0, 2.0, 3.0]])
        grads = gradients(params, x, lambda out: out.sum())
        # dL/dw1 = outer(hidden, ones); hidden = relu(x I + 5)
        hidden = np.maximum(x @ params["w0"] + params["b0"], 0.0)
        assert np.allclose(grads["w1"], np.outer(hidden[0], np.ones(4)), atol=1e-12)
        assert np.allclose(grads["b1"], np.ones((1, 4)))

    def test_constant_loss_gives_zero_gradients(self):
        params = init_mlp_params((2, 3, 1), np.random.default_rng(10))
        grads = gradients(params, np.zeros((1, 2)), lambda out: (out * 0.0).sum())
        for name in params:
            assert np.array_equal(grads[name], np.zeros_like(params[name]))

    def test_rejects_nonscalar_loss(self):
        params = init_mlp_params((2, 3, 2), np.random.default_rng(11))
        with pytest.raises(ValueError):
            gradients(params, np.zeros((1, 2)), lambda out: out)

    def test_matches_central_finite_differences_50_trials(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(50):
            sizes = (
                int(rng.integers(2, 5)),
                int(rng.integers(3, 9)),
                int(rng.integers(3, 9)),
                int(rng.integers(1, 4)),
            )
            params = init_mlp_params(sizes, rng)
            x = draw_kink_clear_input(params, rng, batch=3)
            target = rng.normal(size=(3, sizes[-1]))
            loss_fn = lambda out: (out - target).square().mean()
            grads = gradients(params, x, loss_fn)

            def loss_value():
                return float(np.mean((forward(params, x) - target) ** 2))

            for name in params:
                numeric = finite_difference(loss_value, params[name])
                scale = np.maximum(np.abs(numeric), 1.0)
                err = float(np.max(np.abs(grads[name] - numeric) / scale))
                worst = max(worst, err)
        assert worst < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState(params)
        before = params["w"].copy()
        adam_update(params, {"w": np.zeros(3)}, state, lr=0.1)
        assert np.array_equal(params["w"], before)

    def test_first_step_is_signed_learning_rate(self):
        params = {"w": np.zeros(4)}
        state = AdamState(params)
        grad = np.array([0.3, -0.7, 1.5, -2.0])
        adam_update(params, {"w": grad}, state, lr=0.01)
        assert np.allclose(params["w"], -0.01 * np.sign(grad), atol=1e-6)

    def test_quadratic_descent_windows(self):
        params = {"w": np.array([5.0, -3.0])}
        state = AdamState(params)
        target = np.array([1.0, 2.0])
        losses = []
        for _ in range(100):
            grad = 2.0 * (params["w"] - target)
            losses.append(float(np.sum((params["w"] - target) ** 2)))
            adam_update(params, {"w": grad}, state, lr=0.05)
        for i in range(len(losses) - 10):
            assert losses[i + 10] < losses[i]

    def test_shape_mismatch_raises(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params)
        with pytest.raises(ValueError):
            adam_update(params, {"w": np.zeros(4)}, state, lr=0.1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        arrays = {
            "actor/w0": rng.normal(size=(4, 8)),
            "critics/w0": rng.normal(size=(2, 8, 4)),
            "log_alpha": np.array(0.37),
        }
        meta = {"obs_dim": 4, "config": {"discount": 0.99}}
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, arrays, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], np.asarray(arrays[name]))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        # junk, and a binary of the earlier format with a JSON sidecar
        for magic in (b"NOTACKPT", b"SGNET001"):
            path.write_bytes(magic + b"\x00" * 16)
            with pytest.raises(ValueError, match="bad magic"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [b"{not json", b"[]", b'{"arrays": []}', b'{"meta": {}}',
         b'{"arrays": [["w", [-1]]], "meta": {}}', b'{"arrays": [], "meta": []}',
         b'{"arrays": [["w"]], "meta": {}}', b"\xff\xfe"],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
        with pytest.raises(ValueError, match="malformed header"):
            load_checkpoint(path)

    def test_layout_is_magic_length_header_payload(self, tmp_path):
        arrays = {"w0": np.arange(6.0).reshape(2, 3), "log_alpha": np.array(0.5)}
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, arrays, {"updates": 3, "obs_dim": 2})
        blob = path.read_bytes()
        assert blob[:8] == CHECKPOINT_MAGIC == b"SGNET002"
        end = 16 + int.from_bytes(blob[8:16], "little")
        assert json.loads(blob[16:end]) == {
            "arrays": [["w0", [2, 3]], ["log_alpha", []]],
            "meta": {"updates": 3, "obs_dim": 2},
        }
        assert blob[end:] == arrays["w0"].tobytes() + arrays["log_alpha"].tobytes()
        # the bytes follow from the contents alone, not from key order
        save_checkpoint(path, arrays, {"obs_dim": 2, "updates": 3})
        assert path.read_bytes() == blob

    @staticmethod
    def saved_blob(tmp_path) -> bytes:
        arrays = {"w0": np.arange(12.0).reshape(3, 4), "log_alpha": np.array(0.5)}
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, arrays, {"obs_dim": 3})
        return path.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        path = tmp_path / "cut.ckpt"
        # cut inside the payload, inside the shape table, and one byte short
        for size in (len(blob) - 8 * 7, 14, len(blob) - 1):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        path = tmp_path / "long.ckpt"
        for extra in (b"\x00", b"\x00" * 8):
            path.write_bytes(blob + extra)
            with pytest.raises(ValueError, match="trailing"):
                load_checkpoint(path)

    def test_save_replaces_files_whole_and_leaves_no_temporaries(self, tmp_path):
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, {"w": np.zeros((50, 50))}, {"round": 1})
        save_checkpoint(path, {"w": np.ones((2, 2))}, {"round": 2})
        arrays, meta = load_checkpoint(path)
        assert np.array_equal(arrays["w"], np.ones((2, 2)))
        assert meta == {"round": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["agent.ckpt"]

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, {"w": np.zeros(3)}, {"round": 1})
        before = path.read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        # the atomic write lives in runlog, shared with metrics.json
        monkeypatch.setattr(runlog.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, {"w": np.ones(3)}, {"round": 2})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] == {"round": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["agent.ckpt"]
