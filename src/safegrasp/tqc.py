"""Truncated-quantile-critics agent, replay buffer, and baseline policies.

The agent is an entropy-regularised squashed-Gaussian actor with an ensemble
of quantile critics.  Temporal-difference targets pool the target critics'
quantile atoms, drop the largest ones (the truncation that fights
overestimation bias), and regress the online critics onto the surviving
atoms with an asymmetric Huber quantile loss.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .autodiff import Tensor, concat
from .env import ACTION_DIM, EnvConfig, RewardConfig, SceneConfig
from .nn import AdamState, adam_update, forward, forward_tape, init_mlp_params
from .nn import load_checkpoint, save_checkpoint

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))
SQUASH_EPS = 1.0e-6
DIAGNOSTICS_EVERY = 100  # train_step reports on updates 100, 200, ...


@dataclass(frozen=True)
class TqcConfig:
    n_critics: int = 2
    quantiles_per_critic: int = 25
    dropped_per_critic: int = 2
    discount: float = 0.99
    target_smoothing: float = 0.005
    learning_rate: float = 3.0e-4
    batch_size: int = 256
    entropy_target: float | None = None  # default: -action_dim
    replay_capacity: int = 1_000_000
    warmup_steps: int = 1000
    hidden_sizes: tuple[int, ...] = (64, 64)
    train_freq: int = 1  # environment steps per gradient update

    def __post_init__(self):
        if self.n_critics < 1:
            raise ValueError("n_critics must be >= 1")
        if not 0 <= self.dropped_per_critic < self.quantiles_per_critic:
            raise ValueError("dropped_per_critic must satisfy 0 <= d < M")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not 0.0 < self.target_smoothing <= 1.0:
            raise ValueError("target_smoothing must lie in (0, 1]")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.replay_capacity < 1:
            raise ValueError("batch_size and replay_capacity must be >= 1")
        if self.train_freq < 1:
            raise ValueError("train_freq must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.entropy_target is not None and not np.isfinite(self.entropy_target):
            raise ValueError("entropy_target must be finite")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must hold at least one width, each >= 1")


def quantile_fractions(n_quantiles: int) -> np.ndarray:
    """Midpoint fractions tau_m = (2m - 1) / 2M for m = 1..M."""
    m = np.arange(1, n_quantiles + 1, dtype=np.float64)
    return (2.0 * m - 1.0) / (2.0 * n_quantiles)


def quantile_huber_loss(
    predicted: np.ndarray, targets: np.ndarray, fractions: np.ndarray | None = None
) -> float:
    """Mean asymmetric Huber quantile loss (kappa = 1) over all pairs."""
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if fractions is None:
        fractions = quantile_fractions(predicted.size)
    fractions = np.asarray(fractions, dtype=np.float64).reshape(-1)
    if fractions.size != predicted.size:
        raise ValueError("one fraction per predicted quantile is required")
    if np.any(fractions <= 0.0) or np.any(fractions >= 1.0) or np.any(
        np.diff(fractions) <= 0.0
    ):
        raise ValueError("fractions must be strictly increasing within (0, 1)")
    loss, _ = kernels.quantile_huber_loss_grad(
        np.ascontiguousarray(predicted.reshape(1, 1, -1)),
        np.ascontiguousarray(targets.reshape(1, -1)),
        np.ascontiguousarray(fractions),
    )
    return float(loss)


def truncated_target(
    atoms: np.ndarray,
    reward: float | np.ndarray,
    terminated: bool | np.ndarray,
    discount: float,
    dropped_per_critic: int,
    entropy_term: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Sort pooled atoms, drop the d largest per critic, build TD targets.

    ``atoms`` has shape (..., n_critics, quantiles_per_critic), any leading
    axes being batch axes; ``reward``, ``terminated`` and ``entropy_term``
    broadcast against the result.  Per sample, the result is the k*N
    smallest pooled atoms (k = M - d) mapped through
    ``reward + (1 - terminated) * discount * (atom - entropy_term)``.
    """
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim < 2:
        raise ValueError("atoms must have shape (..., n_critics, quantiles_per_critic)")
    n_critics, n_quantiles = atoms.shape[-2:]
    if not 0 <= dropped_per_critic < n_quantiles:
        raise ValueError("dropped_per_critic must satisfy 0 <= d < M")
    if not 0.0 < discount <= 1.0:
        raise ValueError("discount must lie in (0, 1]")
    keep = (n_quantiles - dropped_per_critic) * n_critics
    pooled = np.sort(atoms.reshape(*atoms.shape[:-2], -1), axis=-1)[..., :keep]
    cont = (1.0 - terminated) * discount
    return reward + cont * (pooled - entropy_term)


def policy_moments(params, obs: np.ndarray, act_dim: int):
    """Actor head split into the Gaussian mean and clipped log-std."""
    out = forward(params, obs)
    mean = out[..., :act_dim]
    log_std = np.clip(out[..., act_dim:], LOG_STD_MIN, LOG_STD_MAX)
    return mean, log_std


class ActorSnapshot:
    """Frozen actor parameters; enough to act deterministically, nothing else."""

    def __init__(self, params: dict, act_dim: int):
        self._params = params
        self._act_dim = act_dim

    def select_action(self, obs: np.ndarray) -> np.ndarray:
        """tanh(mean) of the frozen policy."""
        mean, _ = policy_moments(self._params, np.asarray(obs, dtype=np.float64), self._act_dim)
        return np.tanh(mean)


class ReplayBuffer:
    """Uniform ring buffer of transitions.

    The arrays are allocated uninitialised: ``sample`` only draws rows below
    ``len(self)``, all of which ``add`` has written.  Zero-filling them would
    make the whole capacity resident (``calloc`` must clear memory it reuses
    from the heap) although most of it is never read.
    """

    def __init__(self, obs_dim: int, act_dim: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._obs = np.empty((capacity, obs_dim))
        self._act = np.empty((capacity, act_dim))
        self._rew = np.empty(capacity)
        self._next_obs = np.empty((capacity, obs_dim))
        self._term = np.empty(capacity)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, act, reward, next_obs, terminated) -> None:
        i = self._cursor
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = reward
        self._next_obs[i] = next_obs
        self._term[i] = 1.0 if terminated else 0.0
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self._size < 1:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return (
            self._obs[idx],
            self._act[idx],
            self._rew[idx],
            self._next_obs[idx],
            self._term[idx],
        )


class TqcAgent:
    """Actor, critic ensemble, temperature, and their optimiser state."""

    def __init__(self, obs_dim: int, act_dim: int, config: TqcConfig | None = None, seed: int = 0):
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.config = config if config is not None else TqcConfig()
        cfg = self.config
        self.entropy_target = (
            float(cfg.entropy_target)
            if cfg.entropy_target is not None
            else -float(act_dim)
        )
        seq = np.random.SeedSequence(seed)
        init_rng, self._noise_rng, self._train_rng = (
            np.random.default_rng(s) for s in seq.spawn(3)
        )
        hidden = cfg.hidden_sizes
        self.actor_params = init_mlp_params((obs_dim, *hidden, 2 * act_dim), init_rng)
        self.critic_params = init_mlp_params(
            (obs_dim + act_dim, *hidden, cfg.quantiles_per_critic),
            init_rng,
            ensemble=cfg.n_critics,
        )
        self.target_params = {name: arr.copy() for name, arr in self.critic_params.items()}
        self.log_alpha = {"log_alpha": np.zeros(())}
        self._actor_adam = AdamState(self.actor_params)
        self._critic_adam = AdamState(self.critic_params)
        self._alpha_adam = AdamState(self.log_alpha)
        self._taus = quantile_fractions(cfg.quantiles_per_critic)
        self.updates = 0

    # -- acting --------------------------------------------------------------

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha["log_alpha"]))

    def select_action(self, obs: np.ndarray) -> np.ndarray:
        """Squashed-Gaussian sample drawn with the agent's noise RNG.

        ``actor_snapshot().select_action`` gives the deterministic tanh(mean).
        """
        return self.sample_with_logprob(obs[None], self._noise_rng)[0][0]

    def sample_with_logprob(self, obs: np.ndarray, rng: np.random.Generator):
        """Stochastic actions plus their squashed log-density (plain arrays)."""
        mean, log_std = policy_moments(self.actor_params, obs, self.act_dim)
        noise = rng.standard_normal(mean.shape)
        std = np.exp(log_std)
        pre_squash = mean + std * noise
        action = np.tanh(pre_squash)
        gauss = -0.5 * noise**2 - log_std - 0.5 * LOG_2PI
        correction = np.log(1.0 - action**2 + SQUASH_EPS)
        logp = np.sum(gauss - correction, axis=-1)
        return action, logp

    def actor_snapshot(self) -> "ActorSnapshot":
        """Read-only copy of the current policy, for evaluation."""
        return ActorSnapshot(
            {name: arr.copy() for name, arr in self.actor_params.items()}, self.act_dim
        )

    # -- critics ---------------------------------------------------------------

    def critic_quantiles(self, params: dict, obs: np.ndarray, act: np.ndarray) -> np.ndarray:
        """Quantile atoms (n_critics, batch, M) for a batch of state-actions."""
        inp = np.concatenate([obs, act], axis=-1)
        return forward(params, inp)

    # -- training ----------------------------------------------------------------

    def _td_targets(self, rew, next_obs, term):
        cfg = self.config
        next_act, next_logp = self.sample_with_logprob(next_obs, self._train_rng)
        z_next = self.critic_quantiles(self.target_params, next_obs, next_act)
        return truncated_target(
            np.swapaxes(z_next, 0, 1),
            rew[:, None],
            term[:, None],
            cfg.discount,
            cfg.dropped_per_critic,
            entropy_term=self.alpha * next_logp[:, None],
        )

    def _critic_update(self, obs, act, targets, with_loss: bool) -> float | None:
        """One critic step; returns the loss value only when asked for it."""
        tensors = {
            name: Tensor(arr, requires_grad=True)
            for name, arr in self.critic_params.items()
        }
        inp = Tensor(np.concatenate([obs, act], axis=-1))
        preds = forward_tape(tensors, inp)
        loss_value, grad = kernels.quantile_huber_loss_grad(
            np.ascontiguousarray(preds.data),
            np.ascontiguousarray(targets),
            self._taus,
            with_loss=with_loss,
        )
        preds.backward(grad)
        grads = {name: t.grad for name, t in tensors.items()}
        adam_update(
            self.critic_params, grads, self._critic_adam, self.config.learning_rate
        )
        return loss_value

    def _actor_update(self, obs) -> tuple[float, np.ndarray]:
        tensors = {
            name: Tensor(arr, requires_grad=True)
            for name, arr in self.actor_params.items()
        }
        obs_t = Tensor(obs)
        out = forward_tape(tensors, obs_t)
        mean = out[:, : self.act_dim]
        log_std = out[:, self.act_dim :].clip(LOG_STD_MIN, LOG_STD_MAX)
        std = log_std.exp()
        noise = self._train_rng.standard_normal((obs.shape[0], self.act_dim))
        pre_squash = mean + std * noise
        action = pre_squash.tanh()
        u = (pre_squash - mean) / std
        gauss = u.square() * (-0.5) - log_std - 0.5 * LOG_2PI
        correction = (1.0 + SQUASH_EPS - action.square()).log()
        logp = (gauss - correction).sum(axis=1)
        # critic parameters enter as plain arrays, so as constants: gradient
        # flows via the action
        q_in = concat([obs_t, action], axis=1)
        q_atoms = forward_tape(self.critic_params, q_in)
        q_mean = q_atoms.mean(axis=(0, 2))
        actor_loss = (logp * self.alpha - q_mean).mean()
        actor_loss.backward()
        grads = {name: t.grad for name, t in tensors.items()}
        adam_update(
            self.actor_params, grads, self._actor_adam, self.config.learning_rate
        )
        return float(actor_loss.data), logp.data

    def _alpha_update(self, logp: np.ndarray) -> None:
        grad = -float(np.mean(logp + self.entropy_target))
        adam_update(
            self.log_alpha,
            {"log_alpha": np.asarray(grad)},
            self._alpha_adam,
            self.config.learning_rate,
        )

    def _soft_update(self) -> None:
        tau = self.config.target_smoothing
        for name, target in self.target_params.items():
            target *= 1.0 - tau
            target += tau * self.critic_params[name]

    def train_step(self, buffer: ReplayBuffer) -> dict | None:
        """One critic, actor and temperature update plus the target blend.

        Returns the diagnostics of updates ``DIAGNOSTICS_EVERY``,
        ``2 * DIAGNOSTICS_EVERY``, ... and ``None`` otherwise (and when the
        buffer holds less than a batch); the critic loss is computed only
        for those reports.
        """
        cfg = self.config
        if len(buffer) < cfg.batch_size:
            return None
        report = (self.updates + 1) % DIAGNOSTICS_EVERY == 0
        obs, act, rew, next_obs, term = buffer.sample(cfg.batch_size, self._train_rng)
        targets = self._td_targets(rew, next_obs, term)
        critic_loss = self._critic_update(obs, act, targets, with_loss=report)
        actor_loss, logp = self._actor_update(obs)
        self._alpha_update(logp)
        self._soft_update()
        self.updates += 1
        if not report:
            return None
        return {
            "update": self.updates,
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "alpha": self.alpha,
        }

    # -- persistence ---------------------------------------------------------------

    def _state_table(self) -> dict:
        """Checkpoint name prefix -> parameter dict, in file order; ``save``
        and ``load`` both walk it."""
        return {
            "actor/": self.actor_params,
            "critics/": self.critic_params,
            "targets/": self.target_params,
            "": self.log_alpha,
        }

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "obs_dim": self.obs_dim,
            "act_dim": self.act_dim,
            "updates": self.updates,
            "config": {**asdict(self.config), "entropy_target": self.entropy_target},
        }
        if extra_meta:
            meta.update(extra_meta)
        arrays = {
            prefix + name: arr
            for prefix, params in self._state_table().items()
            for name, arr in params.items()
        }
        save_checkpoint(path, arrays, meta)

    @classmethod
    def load(cls, path, seed: int = 0) -> "TqcAgent":
        """Rebuild a saved agent; a missing array, one whose shape the
        checkpoint's own config does not give, or one that holds a NaN or an
        infinity is a ``ValueError``."""
        arrays, meta = load_checkpoint(path)
        agent = cls(meta["obs_dim"], meta["act_dim"], TqcConfig(**meta["config"]), seed=seed)
        for prefix, params in agent._state_table().items():
            for name, arr in params.items():
                if prefix + name not in arrays:
                    raise ValueError(f"checkpoint has no array {prefix + name!r}")
                loaded = arrays[prefix + name]
                if loaded.shape != arr.shape:
                    raise ValueError(
                        f"array {prefix + name!r} has shape {loaded.shape}, "
                        f"but the checkpoint's config gives {arr.shape}"
                    )
                if not np.isfinite(loaded).all():
                    raise ValueError(f"array {prefix + name!r} holds a non-finite value")
                params[name] = loaded
        agent.updates = int(meta.get("updates", 0))
        return agent


# ---------------------------------------------------------------------------
# baseline policies
# ---------------------------------------------------------------------------

class ScriptedGraspPolicy:
    """Deterministic reach-descend-grasp-lift controller.

    Moves are capped below the safety-rated reduced speed ``speed_limit``
    (m/s) so a clean run produces no velocity violations; with an obstacle
    present the controller climbs over it before traversing.  The defaults
    are those of the env, scene and reward configurations.

    An action is computed on Python floats from one ``tolist()`` of the
    observation.  The two roundings that can flip a branch or the step cap
    stay numpy's: each norm is ``kernels.norm3``, and the horizontal
    distance is ``np.hypot`` (libm's ``hypot``, which ``math.hypot`` is not).
    """

    def __init__(
        self,
        action_scale: float = EnvConfig.action_scale,
        dt: float = EnvConfig.dt,
        grasp_radius: float = EnvConfig.grasp_radius,
        obstacle_half_extents=SceneConfig.obstacle_half_extents,
        eef_radius: float = SceneConfig.eef_radius,
        speed_limit: float = RewardConfig.collision_velocity_threshold,
    ):
        half = tuple(obstacle_half_extents) if np.iterable(obstacle_half_extents) else ()
        if len(half) != 3 or not all(_finite_real(h) for h in half):
            raise ValueError(
                f"obstacle_half_extents must be 3 finite numbers, got {obstacle_half_extents!r}"
            )
        for name, value in (
            ("action_scale", action_scale),
            ("dt", dt),
            ("grasp_radius", grasp_radius),
            ("eef_radius", eef_radius),
            ("speed_limit", speed_limit),
        ):
            if not (_finite_real(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        self.action_scale = action_scale
        self.step_cap = 0.96 * speed_limit * dt  # stay under the reduced-speed limit
        self.grasp_radius = grasp_radius
        self.obstacle_half = tuple(float(h) for h in half)
        self.eef_radius = eef_radius

    def __call__(self, obs) -> np.ndarray:
        v = obs.tolist()
        if v[16]:  # grasped
            return self._command(0.0, 0.0, self.step_cap, close=True)
        ex, ey, ez = v[0:3]
        cx, cy, cz = v[7:10]
        tx, ty, tz = cx, cy, cz
        if np.hypot(cx - ex, cy - ey) > 0.004:
            # cruise above the cube before descending onto it
            tz = cz + 0.08
        ox, oy, oz = v[13:16]
        if ox != 0.0 or oy != 0.0 or oz != 0.0:
            half_x, _, half_z = self.obstacle_half
            safe_z = oz + half_z + self.eef_radius + 0.05
            if ex < ox + half_x + 0.03 and cx > ox:  # the obstacle blocks the way
                if ez < safe_z - 0.005:
                    tx, ty, tz = ex, ey, safe_z
                else:
                    tx, ty, tz = cx, cy, max(safe_z, cz + 0.08)
        close = kernels.norm3(cx - ex, cy - ey, cz - ez) <= 0.8 * self.grasp_radius
        return self._command(tx - ex, ty - ey, tz - ez, close)

    def _command(self, dx: float, dy: float, dz: float, close: bool) -> np.ndarray:
        norm = kernels.norm3(dx, dy, dz)
        if norm > self.step_cap:
            shrink = self.step_cap / norm
            dx, dy, dz = dx * shrink, dy * shrink, dz * shrink
        scale = self.action_scale
        # max before min, value first: a NaN passes through, as np.clip lets it
        return np.array((
            min(max(dx / scale, -1.0), 1.0),
            min(max(dy / scale, -1.0), 1.0),
            min(max(dz / scale, -1.0), 1.0),
            1.0 if close else -1.0,
        ))


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value)


class RandomPolicy:
    """Uniform actions in [-1, 1]^4."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def __call__(self, obs) -> np.ndarray:
        return self._rng.uniform(-1.0, 1.0, size=ACTION_DIM)
