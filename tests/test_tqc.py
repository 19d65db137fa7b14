"""TQC agent: truncation, quantile loss, actor density, replay, training."""

import collections
import copy

import numpy as np
import pytest
from scipy import stats

from safegrasp.autodiff import Tensor
from safegrasp import kernels
from safegrasp.env import GraspEnv
from safegrasp.nn import forward, forward_tape
from safegrasp.rollout import rollout_episodes
from safegrasp.runlog import EpisodeLogWriter
from safegrasp.tqc import (
    DIAGNOSTICS_EVERY,
    ActorSnapshot,
    RandomPolicy,
    ReplayBuffer,
    ScriptedGraspPolicy,
    TqcAgent,
    TqcConfig,
    policy_moments,
    quantile_fractions,
    quantile_huber_loss,
    truncated_target,
)
from safegrasp.world import DisturbanceSpec


def small_config(**overrides) -> TqcConfig:
    base = dict(
        batch_size=32,
        replay_capacity=4096,
        hidden_sizes=(16, 16),
        warmup_steps=0,
        quantiles_per_critic=5,
        dropped_per_critic=1,
    )
    base.update(overrides)
    return TqcConfig(**base)


def fill_buffer(buf: ReplayBuffer, rng, n, obs_dim=17, act_dim=4, terminated=False):
    for _ in range(n):
        buf.add(
            rng.normal(size=obs_dim),
            rng.uniform(-1, 1, act_dim),
            float(rng.normal()),
            rng.normal(size=obs_dim),
            terminated,
        )


class TestTruncatedTarget:
    def test_no_truncation_keeps_all_atoms(self):
        atoms = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, -1.0]])
        out = truncated_target(atoms, reward=0.0, terminated=False, discount=1.0,
                               dropped_per_critic=0)
        assert sorted(out.tolist()) == sorted(atoms.reshape(-1).tolist())
        assert np.all(np.diff(out) >= 0.0)

    def test_documented_sort_and_drop(self):
        atoms = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        out = truncated_target(atoms, 0.0, False, 1.0, dropped_per_critic=1)
        assert np.array_equal(out, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))

    def test_degenerate_distribution(self):
        atoms = np.full((3, 4), 2.5)
        out = truncated_target(atoms, reward=0.7, terminated=False, discount=0.9,
                               dropped_per_critic=2)
        assert out.shape == (6,)
        assert np.allclose(out, 0.7 + 0.9 * 2.5)

    def test_terminated_removes_bootstrap(self):
        atoms = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = truncated_target(atoms, reward=-1.0, terminated=True, discount=0.99,
                               dropped_per_critic=0)
        assert np.allclose(out, -1.0)

    def test_entropy_term_enters_bootstrap(self):
        atoms = np.array([[2.0, 2.0]])
        out = truncated_target(atoms, 0.0, False, 0.5, 0, entropy_term=1.0)
        assert np.allclose(out, 0.5 * (2.0 - 1.0))

    def test_invalid_drop_count(self):
        with pytest.raises(ValueError):
            truncated_target(np.ones((2, 3)), 0.0, False, 0.9, dropped_per_critic=3)

    def test_matches_brute_force_oracle_1000_cases(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            d = int(rng.integers(0, m))
            atoms = rng.normal(size=(n, m)) * 10.0
            reward = float(rng.normal())
            terminated = bool(rng.integers(2))
            discount = float(rng.uniform(0.1, 1.0))
            entropy = float(rng.normal(scale=0.3))
            out = truncated_target(atoms, reward, terminated, discount, d, entropy)
            # oracle: flat sort, slice, affine map
            kept = sorted(atoms.reshape(-1).tolist())[: (m - d) * n]
            cont = 0.0 if terminated else discount
            expected = [reward + cont * (a - entropy) for a in kept]
            assert out.shape == ((m - d) * n,)
            assert np.allclose(out, expected, atol=1e-12)

    def test_batched_call_matches_per_sample_calls_bit_for_bit(self):
        # the learner's form: leading batch axis, per-sample reward,
        # termination and entropy term broadcast over the kept atoms
        rng = np.random.default_rng(8)
        atoms = rng.normal(size=(64, 3, 7)) * 10.0
        reward = rng.normal(size=64)
        terminated = (rng.random(64) < 0.3).astype(np.float64)
        entropy = rng.normal(scale=0.3, size=64)
        out = truncated_target(
            atoms, reward[:, None], terminated[:, None], 0.97, 2, entropy[:, None]
        )
        assert out.shape == (64, 15)
        for b in range(64):
            single = truncated_target(
                atoms[b], reward[b], bool(terminated[b]), 0.97, 2, entropy[b]
            )
            assert out[b].tobytes() == single.tobytes()

    def test_monotonicity_in_dropped_atoms(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 8))
            atoms = rng.normal(size=(n, m))
            means = []
            for d in range(m):
                out = truncated_target(atoms, 0.0, False, 1.0, d)
                means.append(out.mean())
            assert all(means[i + 1] <= means[i] + 1e-12 for i in range(m - 1))


def loops_quantile_huber_loss_grad(preds, targets, fractions):
    """Reference quantile-Huber loss and gradient as pairwise scalar loops.

    ``preds`` has shape (n_critics, batch, n_quantiles), ``targets``
    (batch, n_atoms).  The loss is the mean over every
    (critic, sample, quantile, atom) pair of ``|tau_m - 1{u<0}| * huber(u)``
    with ``u = target - prediction``; the gradient is d(loss)/d(preds).
    """
    n_crit, batch, n_quant = preds.shape
    n_atoms = targets.shape[1]
    grad = np.zeros_like(preds)
    scale = 1.0 / (n_crit * batch * n_quant * n_atoms)
    loss = 0.0
    for n in range(n_crit):
        for b in range(batch):
            for m in range(n_quant):
                z = preds[n, b, m]
                tau = fractions[m]
                g = 0.0
                for k in range(n_atoms):
                    u = targets[b, k] - z
                    neg = 1.0 if u < 0.0 else 0.0
                    w = tau + neg * (1.0 - 2.0 * tau)
                    au = abs(u)
                    inside = 1.0 if au <= 1.0 else 0.0
                    loss += w * (inside * 0.5 * u * u + (1.0 - inside) * (au - 0.5))
                    g -= w * (inside * u + (1.0 - inside) * (1.0 - 2.0 * neg))
                grad[n, b, m] = g * scale
    return loss * scale, grad


def assert_kernel_matches_loops(preds, targets, taus):
    """The kernel against the scalar loops, 1e-12 relative.

    The loss is compared relative to itself and the gradient relative to
    its largest entry, since single entries can cancel to near zero.
    """
    loss, grad = kernels.quantile_huber_loss_grad(preds, targets, taus)
    ref_loss, ref_grad = loops_quantile_huber_loss_grad(preds, targets, taus)
    assert grad.shape == ref_grad.shape == preds.shape
    assert ref_loss > 0.0
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    # without the loss, the very same gradient bytes
    no_loss, bare_grad = kernels.quantile_huber_loss_grad(
        preds, targets, taus, with_loss=False
    )
    assert no_loss is None
    assert bare_grad.tobytes() == grad.tobytes()


class TestQuantileHuberLoss:
    def test_zero_when_predictions_equal_targets(self):
        # the loss is pairwise, so exact zero needs every pair to agree
        assert quantile_huber_loss([0.7], [0.7]) == pytest.approx(0.0, abs=1e-15)
        constant = np.full(4, -1.3)
        assert quantile_huber_loss(constant, constant) == pytest.approx(0.0, abs=1e-15)

    def test_single_pair_linear_branch(self):
        assert quantile_huber_loss([0.0], [2.0], [0.5]) == pytest.approx(0.75, abs=1e-12)

    def test_asymmetry_scaling_in_linear_regime(self):
        tau = 0.2
        up = quantile_huber_loss([0.0], [3.0], [tau])
        down = quantile_huber_loss([0.0], [-3.0], [tau])
        assert down / up == pytest.approx((1.0 - tau) / tau, rel=1e-12)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            quantile_huber_loss([0.0, 1.0], [1.0], [0.7, 0.3])
        with pytest.raises(ValueError):
            quantile_huber_loss([0.0], [1.0], [1.0])

    def test_matches_brute_force_oracle_1000_cases(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            m = int(rng.integers(1, 8))
            k = int(rng.integers(1, 8))
            preds = rng.normal(size=m) * 3.0
            targets = rng.normal(size=k) * 3.0
            taus = np.sort(rng.uniform(0.01, 0.99, size=m))
            if np.any(np.diff(taus) <= 0):
                continue
            got = quantile_huber_loss(preds, targets, taus)
            # oracle: explicit double loop over pairs
            total = 0.0
            for i in range(m):
                for j in range(k):
                    u = targets[j] - preds[i]
                    weight = (1.0 - taus[i]) if u < 0.0 else taus[i]
                    huber = 0.5 * u * u if abs(u) <= 1.0 else abs(u) - 0.5
                    total += weight * huber
            assert got == pytest.approx(total / (m * k), abs=1e-10)

    def test_kernel_variants_agree(self):
        # the sort/prefix-sum kernel against the pairwise scalar definition
        rng = np.random.default_rng(11)
        preds = rng.normal(size=(2, 16, 5))
        targets = rng.normal(size=(16, 8))
        assert_kernel_matches_loops(preds, targets, quantile_fractions(5))


class TestQuantileHuberKernel:
    """The kernel against the pairwise loops it must reproduce."""

    def test_unsorted_targets(self):
        rng = np.random.default_rng(40)
        preds = rng.normal(size=(2, 12, 5))
        targets = rng.normal(size=(12, 9))
        assert np.any(np.diff(targets, axis=1) < 0.0)
        taus = quantile_fractions(5)
        assert_kernel_matches_loops(preds, targets, taus)
        # descending rows, and rows that are a permutation of each other
        assert_kernel_matches_loops(preds, -np.sort(-targets, axis=1), taus)
        assert_kernel_matches_loops(preds, rng.permuted(targets, axis=1), taus)

    def test_ties_at_zero_and_unit_distance(self):
        # small integers put many pairs exactly at u = 0 and |u| = 1
        rng = np.random.default_rng(41)
        for _ in range(20):
            preds = rng.integers(-2, 3, size=(2, 6, 4)).astype(np.float64)
            targets = rng.integers(-3, 4, size=(6, 10)).astype(np.float64)
            u = targets[None, :, None, :] - preds[..., None]
            assert np.any(u == 0.0) and np.any(np.abs(u) == 1.0)
            assert_kernel_matches_loops(preds, targets, quantile_fractions(4))
        # every atom exactly one unit below or above its prediction
        preds = np.full((1, 3, 3), 0.5)
        targets = np.array([[-0.5, 1.5], [-0.5, -0.5], [1.5, 1.5]])
        assert_kernel_matches_loops(preds, targets, quantile_fractions(3))
        # atoms a hair either side of each boundary: misplacing one changes
        # its weight by 1 - 2 tau at a slope of 1e-9, far above rounding
        preds = rng.normal(size=(2, 6, 4))
        offsets = np.array([-1.0, 0.0, 1.0])[:, None] + np.array([-1e-9, 1e-9])
        targets = (preds[0, :, :, None] + offsets.reshape(-1)).reshape(6, -1)
        assert_kernel_matches_loops(preds, targets, quantile_fractions(4))

    @pytest.mark.parametrize("spread", [1e-3, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 1e4, -1e4])
    def test_spreads_and_offsets(self, spread, offset):
        rng = np.random.default_rng(42)
        preds = offset + spread * rng.normal(size=(2, 8, 5))
        # targets share the offset, plus a shifted copy so the linear
        # regions on both sides are populated
        targets = offset + spread * rng.normal(size=(8, 12))
        targets[:, :3] += 3.0 * spread
        assert_kernel_matches_loops(preds, targets, quantile_fractions(5))

    @pytest.mark.parametrize("n_critics", [1, 3])
    def test_critic_counts(self, n_critics):
        rng = np.random.default_rng(43)
        preds = rng.normal(size=(n_critics, 10, 6)) * 2.0
        targets = rng.normal(size=(10, 13)) * 2.0
        assert_kernel_matches_loops(preds, targets, quantile_fractions(6))

    @pytest.mark.parametrize(
        "batch,n_quant,n_atoms", [(1, 5, 7), (6, 1, 7), (6, 5, 1), (1, 1, 1)]
    )
    def test_unit_dimensions(self, batch, n_quant, n_atoms):
        rng = np.random.default_rng(44)
        preds = rng.normal(size=(2, batch, n_quant)) * 2.0
        targets = rng.normal(size=(batch, n_atoms)) * 2.0
        assert_kernel_matches_loops(preds, targets, quantile_fractions(n_quant))

    @pytest.mark.parametrize("n_atoms", [31, 32, 33, 46, 64])
    def test_training_shape_and_power_of_two_rows(self, n_atoms):
        # the default critic shape (2 x 25 quantiles, 46 kept atoms) on a
        # smaller batch, and atom counts around a power of two
        rng = np.random.default_rng(45)
        preds = rng.normal(size=(2, 16, 25)) * 3.0
        targets = rng.normal(size=(16, n_atoms)) * 3.0
        assert_kernel_matches_loops(preds, targets, quantile_fractions(25))


class TestSelectAction:
    def test_stochastic_action_is_row_0_of_the_batched_sample(self):
        agent = TqcAgent(17, 4, small_config(), seed=8)
        obs = np.random.default_rng(1).normal(size=17)
        for _ in range(3):  # the noise RNG advances between calls
            rng = copy.deepcopy(agent._noise_rng)
            expected = agent.sample_with_logprob(obs[None], rng)[0][0]
            action = agent.select_action(obs)
            assert action.shape == expected.shape == (4,)
            assert action.tobytes() == expected.tobytes()

    def test_deterministic_calls_identical(self):
        snapshot = TqcAgent(6, 3, small_config(), seed=5).actor_snapshot()
        obs = np.linspace(-1, 1, 6)
        a = snapshot.select_action(obs)
        b = snapshot.select_action(obs)
        assert np.array_equal(a, b)

    def test_all_actions_bounded_10k_draws(self):
        agent = TqcAgent(6, 4, small_config(), seed=6)
        obs = np.random.default_rng(0).normal(size=(10_000, 6))
        actions = agent.select_action(obs)
        assert actions.shape == (10_000, 4)
        assert np.all(actions >= -1.0) and np.all(actions <= 1.0)

    def test_log_density_matches_quadrature_oracle(self):
        """The squashed density integrates to 1 and matches Gaussian masses."""
        agent = TqcAgent(3, 1, small_config(), seed=7)
        obs = np.array([0.2, -0.4, 1.0])
        mean, log_std = policy_moments(agent.actor_params, obs, 1)
        mu, sigma = float(mean[0]), float(np.exp(log_std[0]))

        eps_grid = np.linspace(-8.0, 8.0, 60_001)

        class GridNoise:
            def __init__(self, grid):
                self.grid = grid

            def standard_normal(self, shape):
                return self.grid.reshape(shape)

        batch_obs = np.tile(obs, (eps_grid.size, 1))
        actions, logp = agent.sample_with_logprob(batch_obs, GridNoise(eps_grid))
        a = actions[:, 0]
        density = np.exp(logp)
        total_mass = np.trapezoid(density, a)
        assert total_mass == pytest.approx(1.0, abs=1e-3)
        # interval masses agree with the exact pre-squash Gaussian
        for lo, hi in [(-0.5, 0.5), (-0.9, 0.2), (0.1, 0.8)]:
            sel = (a >= lo) & (a <= hi)
            mass = np.trapezoid(density[sel], a[sel])
            exact = stats.norm.cdf(
                (np.arctanh(hi) - mu) / sigma
            ) - stats.norm.cdf((np.arctanh(lo) - mu) / sigma)
            assert mass == pytest.approx(exact, abs=1e-3)

    def test_snapshot_matches_agent(self):
        agent = TqcAgent(5, 2, small_config(), seed=8)
        snap = agent.actor_snapshot()
        obs = np.linspace(-0.5, 0.5, 5)
        mean, _ = policy_moments(agent.actor_params, obs, 2)
        assert np.array_equal(np.tanh(mean), snap.select_action(obs))


class TestReplayBuffer:
    def test_sampling_reproducible_with_seed(self):
        buf = ReplayBuffer(4, 2, 128)
        rng = np.random.default_rng(3)
        fill_buffer(buf, rng, 50, obs_dim=4, act_dim=2)
        a = buf.sample(16, np.random.default_rng(42))
        b = buf.sample(16, np.random.default_rng(42))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_uniformity_chi_square(self):
        buf = ReplayBuffer(1, 1, 16)
        for i in range(10):
            buf.add([float(i)], [0.0], 0.0, [0.0], False)
        rng = np.random.default_rng(10)
        obs, *_ = buf.sample(10_000, rng)
        counts = np.bincount(obs[:, 0].astype(int), minlength=10)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_ring_overwrite(self):
        buf = ReplayBuffer(1, 1, 4)
        for i in range(6):
            buf.add([float(i)], [0.0], 0.0, [0.0], False)
        assert len(buf) == 4
        obs, *_ = buf.sample(100, np.random.default_rng(0))
        assert set(obs[:, 0].astype(int)) <= {2, 3, 4, 5}

    def test_empty_sample_rejected(self):
        buf = ReplayBuffer(1, 1, 4)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))

    @staticmethod
    def add_numbered(buf: ReplayBuffer, numbers) -> None:
        # every field of transition i is derived from i, so a sampled row
        # identifies the transition it came from
        for i in numbers:
            buf.add([i, -i], [i + 0.5], 2.0 * i, [i + 0.25, -i], i % 2 == 1)

    @staticmethod
    def sampled_numbers(buf: ReplayBuffer, size: int) -> set:
        obs, act, rew, next_obs, term = buf.sample(size, np.random.default_rng(7))
        numbers = obs[:, 0]
        assert np.array_equal(obs[:, 1], -numbers)
        assert np.array_equal(act[:, 0], numbers + 0.5)
        assert np.array_equal(rew, 2.0 * numbers)
        assert np.array_equal(next_obs, np.column_stack([numbers + 0.25, -numbers]))
        assert np.array_equal(term, (numbers % 2 == 1).astype(np.float64))
        return set(numbers.astype(int).tolist())

    def test_partly_filled_samples_only_added_rows(self):
        buf = ReplayBuffer(2, 1, 1000)
        self.add_numbered(buf, range(1, 6))
        assert self.sampled_numbers(buf, 2000) == {1, 2, 3, 4, 5}

    def test_wrapped_ring_samples_only_live_rows(self):
        buf = ReplayBuffer(2, 1, 8)
        self.add_numbered(buf, range(1, 14))
        assert len(buf) == 8
        assert self.sampled_numbers(buf, 2000) == set(range(6, 14))


class TestTrainStep:
    def test_insufficient_buffer_skips(self):
        agent = TqcAgent(4, 2, small_config(batch_size=64), seed=1)
        buf = ReplayBuffer(4, 2, 128)
        fill_buffer(buf, np.random.default_rng(0), 10, obs_dim=4, act_dim=2)
        assert agent.train_step(buf) is None

    def test_full_smoothing_copies_online_to_target(self):
        agent = TqcAgent(4, 2, small_config(target_smoothing=1.0), seed=2)
        buf = ReplayBuffer(4, 2, 256)
        fill_buffer(buf, np.random.default_rng(1), 64, obs_dim=4, act_dim=2)
        agent.train_step(buf)
        for name in agent.critic_params:
            assert np.array_equal(agent.target_params[name], agent.critic_params[name])

    def test_critic_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        agent = TqcAgent(3, 2, small_config(hidden_sizes=(8, 8)), seed=3)
        taus = quantile_fractions(agent.config.quantiles_per_critic)
        # kink-clear batch keeps the finite-difference oracle valid
        for _ in range(100):
            obs = rng.normal(size=(6, 3))
            act = rng.uniform(-1, 1, size=(6, 2))
            inp = np.concatenate([obs, act], axis=1)
            clear = True
            h = inp
            for i in range(len(agent.critic_params) // 2 - 1):
                h = h @ agent.critic_params[f"w{i}"] + agent.critic_params[f"b{i}"]
                if np.min(np.abs(h)) < 1e-3:
                    clear = False
                h = np.maximum(h, 0.0)
            if clear:
                break
        targets = rng.normal(size=(6, 8))

        def loss_value():
            preds = agent.critic_quantiles(agent.critic_params, obs, act)
            loss, _ = kernels.quantile_huber_loss_grad(
                np.ascontiguousarray(preds), targets, taus
            )
            return float(loss)

        tensors = {
            name: Tensor(arr, requires_grad=True)
            for name, arr in agent.critic_params.items()
        }
        preds_t = forward_tape(tensors, Tensor(inp))
        _, grad = kernels.quantile_huber_loss_grad(
            np.ascontiguousarray(preds_t.data), targets, taus
        )
        preds_t.backward(grad)

        h = 1e-5
        worst = 0.0
        for name, tensor in tensors.items():
            arr = agent.critic_params[name]
            flat = arr.reshape(-1)
            analytic = tensor.grad.reshape(-1)
            idx = np.random.default_rng(6).choice(
                flat.size, size=min(40, flat.size), replace=False
            )
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                hi = loss_value()
                flat[i] = orig - h
                lo = loss_value()
                flat[i] = orig
                numeric = (hi - lo) / (2 * h)
                err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
        assert worst < 1e-4

    def test_gradient_check_holds_at_default_architectures(self):
        """Finite-difference spot check on the full-width actor and critics."""
        from test_nn import draw_kink_clear_input

        agent = TqcAgent(17, 4, TqcConfig(replay_capacity=1), seed=12)
        rng = np.random.default_rng(13)
        h = 1e-5
        for params in (agent.actor_params, agent.critic_params):
            x = draw_kink_clear_input(params, rng, batch=2)
            target = rng.normal(size=(2, params[f"w{len(params) // 2 - 1}"].shape[-1]))
            from safegrasp.nn import gradients

            grads = gradients(params, x, lambda out: (out - target).square().mean())

            def loss_value():
                out = forward(params, x)
                return float(np.mean((out - target) ** 2))

            for name in params:
                arr = params[name]
                flat = arr.reshape(-1)
                analytic = grads[name].reshape(-1)
                idx = rng.choice(flat.size, size=min(60, flat.size), replace=False)
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + h
                    hi = loss_value()
                    flat[i] = orig - h
                    lo = loss_value()
                    flat[i] = orig
                    numeric = (hi - lo) / (2 * h)
                    assert abs(analytic[i] - numeric) / max(1.0, abs(numeric)) < 1e-4

    def test_bandit_critic_converges_to_reward(self):
        config = small_config(
            batch_size=64,
            hidden_sizes=(16, 16),
            quantiles_per_critic=5,
            dropped_per_critic=1,
            learning_rate=1e-3,
        )
        agent = TqcAgent(2, 1, config, seed=4)
        buf = ReplayBuffer(2, 1, 2048)
        rng = np.random.default_rng(2)
        obs = np.zeros(2)
        for _ in range(512):
            buf.add(obs, rng.uniform(-1, 1, 1), 1.0, obs, True)
        for _ in range(5000):
            agent.train_step(buf)
        atoms = agent.critic_quantiles(
            agent.critic_params, obs[None, :], np.array([[0.0]])
        )
        assert float(atoms.mean()) == pytest.approx(1.0, abs=0.05)

    def test_training_arithmetic_stays_finite_10k_updates(self):
        config = small_config(batch_size=32, hidden_sizes=(12, 12))
        agent = TqcAgent(6, 2, config, seed=9)
        buf = ReplayBuffer(6, 2, 4096)
        rng = np.random.default_rng(3)
        fill_buffer(buf, rng, 600, obs_dim=6, act_dim=2)
        reports = []
        for i in range(10_000):
            diag = agent.train_step(buf)
            if diag is not None:
                reports.append(diag["update"])
                assert np.isfinite(diag["critic_loss"])
                assert np.isfinite(diag["actor_loss"])
                assert np.isfinite(diag["alpha"])
        assert reports == list(range(100, 10_001, 100))
        for params in (agent.actor_params, agent.critic_params, agent.target_params):
            for name, arr in params.items():
                assert np.all(np.isfinite(arr))

    def test_reports_exactly_on_every_hundredth_update(self):
        agent = TqcAgent(4, 2, small_config(batch_size=16), seed=14)
        buf = ReplayBuffer(4, 2, 256)
        rng = np.random.default_rng(15)
        fill_buffer(buf, rng, 10, obs_dim=4, act_dim=2)
        assert agent.train_step(buf) is None  # below a batch: no update
        assert agent.updates == 0
        fill_buffer(buf, rng, 54, obs_dim=4, act_dim=2)
        reports = {}
        for _ in range(2 * DIAGNOSTICS_EVERY + 50):
            diag = agent.train_step(buf)
            if diag is not None:
                reports[agent.updates] = diag
        assert DIAGNOSTICS_EVERY == 100
        assert sorted(reports) == [100, 200]
        for update, diag in reports.items():
            assert sorted(diag) == ["actor_loss", "alpha", "critic_loss", "update"]
            assert diag["update"] == update
            assert all(type(diag[key]) is float for key in diag if key != "update")

    def test_save_load_round_trip(self, tmp_path):
        agent = TqcAgent(6, 3, small_config(), seed=10)
        buf = ReplayBuffer(6, 3, 512)
        fill_buffer(buf, np.random.default_rng(4), 64, obs_dim=6, act_dim=3)
        for _ in range(5):
            agent.train_step(buf)
        path = tmp_path / "agent.ckpt"
        agent.save(path)
        clone = TqcAgent.load(path)
        obs = np.linspace(-1, 1, 6)
        assert np.array_equal(
            agent.actor_snapshot().select_action(obs),
            clone.actor_snapshot().select_action(obs),
        )
        assert clone.updates == agent.updates


def numpy_scripted_reference(policy, obs, hits=None) -> np.ndarray:
    """Reference ``ScriptedGraspPolicy`` action, on numpy 3-vectors.

    This is the controller's earlier numpy form, with ``policy``'s settings.
    When ``hits`` (a ``collections.Counter``) is given, it counts each branch
    the action took.
    """
    hits = collections.Counter() if hits is None else hits
    if obs[16]:
        hits["grasped"] += 1
        delta = np.array([0.0, 0.0, policy.step_cap])
        return _numpy_scripted_command(policy, delta, True, hits)
    half = np.asarray(policy.obstacle_half, dtype=np.float64)
    eef = obs[0:3]
    cube = obs[7:10]
    target = cube.copy()
    horizontal = float(np.hypot(cube[0] - eef[0], cube[1] - eef[1]))
    if horizontal > 0.004:
        hits["cruise"] += 1
        target[2] = cube[2] + 0.08
    else:
        hits["descend"] += 1
    obstacle = obs[13:16]
    if np.any(obstacle != 0.0):
        safe_z = obstacle[2] + half[2] + policy.eef_radius + 0.05
        blocking = eef[0] < obstacle[0] + half[0] + 0.03 and cube[0] > obstacle[0]
        if blocking:
            if eef[2] < safe_z - 0.005:
                hits["blocked below safe_z"] += 1
                target = np.array([eef[0], eef[1], safe_z])
            else:
                hits["blocked above safe_z"] += 1
                target = np.array([cube[0], cube[1], max(safe_z, cube[2] + 0.08)])
    delta = target - eef
    close = float(np.linalg.norm(cube - eef)) <= 0.8 * policy.grasp_radius
    hits["close" if close else "far"] += 1
    return _numpy_scripted_command(policy, delta, close, hits)


def _numpy_scripted_command(policy, delta, close, hits):
    norm = float(np.linalg.norm(delta))
    if norm > policy.step_cap:
        hits["over step_cap"] += 1
        delta = delta * (policy.step_cap / norm)
    else:
        hits["under step_cap"] += 1
    scaled = delta / policy.action_scale
    if np.any(np.abs(scaled) > 1.0):
        hits["clipped"] += 1
    act = np.clip(scaled, -1.0, 1.0)
    return np.array([act[0], act[1], act[2], 1.0 if close else -1.0])


def read_only(values) -> np.ndarray:
    """``values`` in the form of an env observation: a read-only float64 array."""
    obs = np.array(values, np.float64)
    obs.setflags(write=False)
    return obs


def scripted_test_observations(rng, count):
    """``count`` seeded observations around the scripted controller's
    branches: cube near and far, an obstacle between the tool and the cube
    with the tool below and above its clearance height, grasped, and one in
    fifty with a NaN component."""
    for _ in range(count):
        v = np.zeros(17)
        eef = rng.uniform([0.3, -0.3, 0.02], [0.7, 0.3, 0.35])
        spread = rng.choice([0.001, 0.003, 0.006, 0.02, 0.3])
        cube = eef + rng.normal(0.0, spread, 3)
        v[0:3] = eef
        v[3:6] = rng.normal(0.0, 0.1, 3)
        v[6] = rng.uniform()
        v[7:10] = cube
        v[10:13] = cube - eef
        if rng.random() < 0.5:
            # x between just behind the tool and the cube blocks the way
            low, high = sorted((eef[0] - 0.08, cube[0]))
            v[13:16] = (rng.uniform(low, high), rng.uniform(-0.1, 0.1),
                        rng.uniform(0.0, 0.3))
        v[16] = rng.random() < 0.1
        if rng.random() < 0.02:
            v[rng.integers(17)] = np.nan
        yield read_only(v)


class TestPolicies:
    def test_scripted_moves_toward_cube(self, env):
        obs = env.reset(seed=40)
        # place a synthetic observation with the cube 0.1 m away on +x
        obs = read_only(
            [0.4, 0.0, 0.1]  # eef position
            + [0.0, 0.0, 0.0]  # eef velocity
            + [1.0]  # gripper open
            + [0.5, 0.0, 0.1]  # cube position
            + [0.1, 0.0, 0.0]  # cube - eef
            + [0.0, 0.0, 0.0]  # no obstacle
            + [0.0]  # not grasped
        )
        action = ScriptedGraspPolicy()(obs)
        assert action[0] > 0.0
        assert action[3] == -1.0  # too far to close

    def test_scripted_closes_within_grasp_radius(self):
        obs = read_only(
            [0.5, 0.0, 0.1]  # eef position
            + [0.0, 0.0, 0.0]  # eef velocity
            + [1.0]  # gripper open
            + [0.5, 0.0, 0.105]  # cube position
            + [0.0, 0.0, 0.005]  # cube - eef
            + [0.0, 0.0, 0.0]  # no obstacle
            + [0.0]  # not grasped
        )
        action = ScriptedGraspPolicy()(obs)
        assert action[3] == 1.0

    def test_policies_take_an_env_observation_directly(self, env):
        obs = env.reset(seed=43, scenario="obstacle")
        snapshot = TqcAgent(17, 4, small_config(), seed=8).actor_snapshot()
        for policy in (ScriptedGraspPolicy(), snapshot.select_action):
            action = policy(obs)
            assert action.shape == (4,) and np.all(np.abs(action) <= 1.0)
            assert action.tobytes() == policy(obs.copy()).tobytes()
            next_obs = env.step(action).observation
            assert policy(next_obs).shape == (4,)

    def test_scripted_full_episode_succeeds(self, env):
        policy = ScriptedGraspPolicy()
        obs = env.reset(seed=41)
        result = None
        for _ in range(200):
            result = env.step(policy(obs))
            obs = result.observation
            if result.terminated or result.truncated:
                break
        assert result.terminated
        assert result.events.lift_success

    def test_scripted_obstacle_episode_avoids_env_collision(self, env):
        policy = ScriptedGraspPolicy()
        obs = env.reset(seed=42, scenario="obstacle")
        collided = False
        for _ in range(200):
            result = env.step(policy(obs))
            obs = result.observation
            collided = collided or result.events.collision_env
            if result.terminated or result.truncated:
                break
        assert not collided

    def test_scripted_matches_numpy_reference_bit_for_bit(self):
        # the second policy's step cap (0.048 m) exceeds its action scale
        # (0.02 m), so its actions also reach the clip
        for policy in (
            ScriptedGraspPolicy(),
            ScriptedGraspPolicy(speed_limit=1.0, obstacle_half_extents=(0.04, 0.1, 0.06)),
        ):
            hits = collections.Counter()
            nan_actions = 0
            for obs in scripted_test_observations(np.random.default_rng(20), 12_000):
                action = policy(obs)
                expected = numpy_scripted_reference(policy, obs, hits)
                assert action.dtype == np.float64 and action.shape == (4,)
                assert action.tobytes() == expected.tobytes(), obs
                nan_actions += bool(np.isnan(action).any())
            branches = ["grasped", "cruise", "descend", "blocked below safe_z",
                        "blocked above safe_z", "close", "far", "over step_cap",
                        "under step_cap"]
            if policy.step_cap > policy.action_scale:
                branches.append("clipped")
            for branch in branches:
                assert hits[branch] >= 50, (branch, hits)
            assert nan_actions >= 50

    def test_scripted_nan_observation_gives_nan_action(self):
        values = [0.5, 0.0, 0.1, 0.0, 0.0, 0.0, 1.0, 0.6, 0.0, 0.1,
                  0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        values[0] = np.nan
        obs = read_only(values)
        policy = ScriptedGraspPolicy()
        action = policy(obs)
        assert np.isnan(action[0]) and action[3] == -1.0
        assert action.tobytes() == numpy_scripted_reference(policy, obs).tobytes()

    @pytest.mark.parametrize(
        "cube_xy,cruise",
        # np.hypot and math.hypot round these 0.004 m offsets apart
        [((0.4979024206464683, 0.0034059008875241006), False),
         ((0.5020961032805136, 0.0034068095099990905), True)],
    )
    def test_scripted_cruise_threshold_rounds_like_libm_hypot(self, cube_xy, cruise):
        values = [0.5, 0.0, 0.1, 0.0, 0.0, 0.0, 1.0, *cube_xy, 0.1,
                  cube_xy[0] - 0.5, cube_xy[1], 0.0, 0.0, 0.0, 0.0, 0.0]
        obs = read_only(values)
        policy = ScriptedGraspPolicy()
        hits = collections.Counter()
        expected = numpy_scripted_reference(policy, obs, hits)
        assert hits["cruise"] == int(cruise)
        assert policy(obs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scenario", ["normal", "obstacle"])
    @pytest.mark.parametrize("disturbance", [None, DisturbanceSpec(0.075, 0.005)])
    def test_scripted_step_log_matches_reference(self, tmp_path, scenario, disturbance):
        policy = ScriptedGraspPolicy()
        logs = []
        for name, act in (
            ("scalar", policy),
            ("reference", lambda obs: numpy_scripted_reference(policy, obs)),
        ):
            path = tmp_path / f"{name}.jsonl"
            with EpisodeLogWriter(path, header={"seed": 5, "scenario": scenario}) as writer:
                (episode,) = rollout_episodes(
                    GraspEnv(), act, episodes=1, base_seed=5, scenario=scenario,
                    disturbance=disturbance, log_writer=writer,
                )
            logs.append(path.read_bytes())
        assert episode.steps > 1
        assert logs[0] == logs[1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"obstacle_half_extents": (0.025, 0.2)},
            {"obstacle_half_extents": (0.025, 0.2, 0.025, 0.1)},
            {"obstacle_half_extents": (0.025, float("nan"), 0.025)},
            {"obstacle_half_extents": (0.025, 0.2, float("inf"))},
            {"obstacle_half_extents": 0.025},
            {"obstacle_half_extents": ("0.025", "0.2", "0.025")},
            {"action_scale": 0.0},
            {"action_scale": -0.02},
            {"action_scale": float("nan")},
            {"dt": 0.0},
            {"dt": float("inf")},
            {"grasp_radius": -0.01},
            {"eef_radius": 0.0},
            {"speed_limit": 0.0},
            {"speed_limit": float("nan")},
        ],
        ids=repr,
    )
    def test_scripted_refuses_bad_settings(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            ScriptedGraspPolicy(**kwargs)

    def test_scripted_accepts_any_three_finite_extents(self):
        for extents in ((0, 0, 0), np.array([0.03, 0.1, 0.02]), [-0.01, 0.2, 0.025]):
            policy = ScriptedGraspPolicy(obstacle_half_extents=extents)
            assert policy.obstacle_half == tuple(float(h) for h in extents)

    def test_random_policy_seeded(self):
        a = RandomPolicy(seed=1)
        b = RandomPolicy(seed=1)
        assert np.array_equal(a(None), b(None))
        assert np.all(np.abs(a(None)) <= 1.0)


class TestConfigValidation:
    def test_drop_count_bounds(self):
        with pytest.raises(ValueError):
            TqcConfig(quantiles_per_critic=5, dropped_per_critic=5)

    def test_discount_bounds(self):
        with pytest.raises(ValueError):
            TqcConfig(discount=1.0)

    def test_smoothing_bounds(self):
        with pytest.raises(ValueError):
            TqcConfig(target_smoothing=0.0)
