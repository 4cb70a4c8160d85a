"""Particle swarm optimization with global-best topology.

Velocity update per particle and iteration:

    v <- w*v + c1*r1*(p - x) + c2*r2*(g - x)
    x <- x + v

where r1, r2 are fresh uniform draws in [0, 1): one scalar per term per
particle by default, or one per dimension with ``per_dimension_rand``. The
swarm state owns each particle's RNG stream, split from (seed, index). A step
moves the whole swarm as (N, D) arrays against the global best it started
with, then scores it. Positions initialize uniformly inside the bounds;
velocities start at zero. Positions clamp to the bounds after every move,
zeroing the velocity on any clamped dimension; velocities clamp to a fraction
of the per-dimension range to keep the swarm from exploding.

One function, ``score``, evaluates the particles in index order and updates
the bests, for the initial swarm (from +inf bests) and after every step
alike. A particle's best moves only on a strictly lower value, and a global
tie goes to the lowest index, so a NaN value never becomes a best.

The inertia weight is either static or linearly interpolated from
``omega_start`` to ``omega_end`` across iterations (exploration early,
exploitation late).
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .ops import check_fields, declared
from .rng import SeededRng


@dataclass(frozen=True)
class Objective:
    """Deterministic scalar function over a box-bounded search space."""

    name: str
    dim: int
    fn: callable


def sphere(x) -> float:
    """Sum of squares; global minimum 0 at the origin."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x * x))


def rastrigin(x) -> float:
    """10*D + sum(x^2 - 10*cos(2*pi*x)); heavily multimodal, minimum 0 at 0."""
    x = np.asarray(x, dtype=np.float64)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def make_objective(name: str, dim: int) -> Objective:
    registry = {"sphere": sphere, "rastrigin": rastrigin}
    if name not in registry:
        raise ValueError(f"unknown objective {name!r}; known: {sorted(registry)}")
    return Objective(name=name, dim=dim, fn=registry[name])


@dataclass
class SwarmConfig:
    n_particles: int = declared(50, ge=1)
    iterations: int = declared(100, ge=0)
    omega: float = declared(0.5, gt=0, le=1)
    c1: float = declared(1.0, ge=0)
    c2: float = declared(1.0, ge=0)
    bounds: list[tuple[float, float]] = declared(factory=lambda: [(-5.0, 5.0)])  # per dimension
    velocity_clamp_fraction: float = declared(0.5, gt=0)
    inertia_schedule: str = declared("static", choices=("static", "linear"))
    omega_start: float = declared(0.9, gt=0, le=1)
    omega_end: float = declared(0.4, gt=0, le=1)
    per_dimension_rand: bool = False
    seed: int = declared(0, ge=0)

    def __post_init__(self):
        check_fields(self, "swarm")
        if bad := [b for b in self.bounds if not b[0] < b[1]]:
            raise ValueError(f"swarm.bounds {bad} need lo < hi")

    def inertia_at(self, iteration: int) -> float:
        if self.inertia_schedule == "static":
            return self.omega
        if self.iterations <= 1:
            return self.omega_start
        frac = iteration / (self.iterations - 1)
        return self.omega_start + (self.omega_end - self.omega_start) * frac


@dataclass
class SwarmState:
    positions: np.ndarray  # (N, D)
    velocities: np.ndarray  # (N, D)
    best_positions: np.ndarray  # (N, D)
    best_values: np.ndarray  # (N,)
    global_best_position: np.ndarray  # (D,)
    global_best_value: float
    streams: list  # one SeededRng per particle, split from the config's seed
    iteration: int = 0
    history: list = field(default_factory=list)  # global best after each step


def init_swarm(cfg: SwarmConfig, obj: Objective) -> SwarmState:
    """Uniform positions in bounds, zero velocities, bests at the start."""
    if len(cfg.bounds) != obj.dim:
        raise ValueError(
            f"{len(cfg.bounds)} bounds do not match objective dimension {obj.dim}"
        )
    streams = [SeededRng(cfg.seed).split(i) for i in range(cfg.n_particles)]
    lo, hi = np.array(cfg.bounds, dtype=np.float64).T
    draws = np.stack([s.uniform(size=obj.dim) for s in streams])
    positions = lo + draws * (hi - lo)
    state = SwarmState(
        positions=positions,
        velocities=np.zeros_like(positions),
        best_positions=positions.copy(),
        best_values=np.full(cfg.n_particles, np.inf),
        global_best_position=positions[0].copy(),
        global_best_value=np.inf,
        streams=streams,
    )
    score(state, obj)
    return state


def score(state: SwarmState, obj: Objective) -> None:
    """Evaluate every particle in index order and update the bests in place."""
    for i, x in enumerate(state.positions):
        value = obj.fn(x)
        if value < state.best_values[i]:
            state.best_values[i] = value
            state.best_positions[i] = x
    best_idx = int(np.argmin(state.best_values))  # ties: lowest particle index
    if state.best_values[best_idx] < state.global_best_value:
        state.global_best_value = float(state.best_values[best_idx])
        state.global_best_position = state.best_positions[best_idx].copy()


def velocity_update(v, x, p, g, omega, c1, c2, r1, r2):
    """Velocity rule on one particle or on rows of them; exposed for direct verification."""
    return omega * v + c1 * r1 * (p - x) + c2 * r2 * (g - x)


def step(state: SwarmState, cfg: SwarmConfig, obj: Objective) -> SwarmState:
    """Advance one synchronous iteration in place; returns the state."""
    lo, hi = np.array(cfg.bounds, dtype=np.float64).T
    v_max = cfg.velocity_clamp_fraction * (hi - lo)
    rand_size = obj.dim if cfg.per_dimension_rand else 1
    r = np.array([
        [s.uniform(size=rand_size), s.uniform(size=rand_size)] for s in state.streams
    ])
    v = velocity_update(
        state.velocities, state.positions, state.best_positions,
        state.global_best_position, cfg.inertia_at(state.iteration),
        cfg.c1, cfg.c2, r[:, 0], r[:, 1],
    )
    v = np.clip(v, -v_max, v_max)
    x = state.positions + v
    v[(x < lo) | (x > hi)] = 0.0
    state.positions = np.clip(x, lo, hi)
    state.velocities = v
    score(state, obj)
    state.iteration += 1
    state.history.append(state.global_best_value)
    return state


def run(cfg: SwarmConfig, obj: Objective):
    """Initialize and iterate. Returns (best position, best value, history)."""
    state = init_swarm(cfg, obj)
    for _ in range(cfg.iterations):
        step(state, cfg, obj)
    return state.global_best_position, state.global_best_value, list(state.history)


HISTORY_CSV_HEADER = ["run_seed", "iteration", "global_best_value"]


def write_history_csv(path, runs: dict) -> None:
    """Persist per-iteration global bests; ``runs`` maps seed -> history."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_CSV_HEADER)
        for seed in sorted(runs):
            for iteration, value in enumerate(runs[seed]):
                writer.writerow([seed, iteration, repr(float(value))])


# ---------------------------------------------------------------------------
# hyperparameter-space encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperparamPoint:
    """One candidate model configuration."""

    lstm_hidden: int = declared(128, ge=1)
    lstm_lr: float = declared(1e-3, gt=0)
    transformer_layers: int = declared(6, ge=0)
    attention_heads: int = declared(8, ge=1)
    d_model: int = declared(256, ge=1)
    transformer_lr: float = declared(1e-4, gt=0)

    def __post_init__(self):
        check_fields(self, "hyperparams")
        if self.d_model % 2 or self.d_model % self.attention_heads:
            raise ValueError(f"hyperparams.d_model {self.d_model} must be even, and"
                             f" hyperparams.attention_heads {self.attention_heads} must divide it")


@dataclass(frozen=True)
class SearchSpace:
    """Admissible values per axis; learning rates live on log10 axes."""

    lstm_hidden: tuple[int, ...] = declared((16, 32, 64, 128, 256), ge=1)
    lstm_lr_bounds: tuple[float, float] = declared((1e-4, 1e-2), gt=0)
    transformer_layers: tuple[int, ...] = declared((1, 2, 3, 4, 5, 6), ge=0)
    attention_heads: tuple[int, ...] = declared((2, 4, 8, 16), ge=1)
    d_model: tuple[int, ...] = declared((32, 64, 128, 256), ge=1)
    transformer_lr_bounds: tuple[float, float] = declared((1e-5, 1e-3), gt=0)

    def __post_init__(self):
        check_fields(self, "search_space")
        for name in ("lstm_lr_bounds", "transformer_lr_bounds"):
            if not getattr(self, name)[0] <= getattr(self, name)[1]:
                raise ValueError(f"search_space.{name} needs lo <= hi, got {getattr(self, name)}")
        if bad := [d for d in self.d_model if d % 2 or all(d % h for h in self.attention_heads)]:
            raise ValueError(f"search_space.d_model choices {bad} must be even, and some"
                             f" search_space.attention_heads choice must divide each")

    def bounds(self) -> list:
        """PSO box bounds; degenerate axes widen by epsilon to stay valid."""
        raw = [
            (min(self.lstm_hidden), max(self.lstm_hidden)),
            tuple(np.log10(self.lstm_lr_bounds)),
            (min(self.transformer_layers), max(self.transformer_layers)),
            (min(self.attention_heads), max(self.attention_heads)),
            (min(self.d_model), max(self.d_model)),
            tuple(np.log10(self.transformer_lr_bounds)),
        ]
        return [(lo, hi if hi > lo else lo + 1e-9) for lo, hi in raw]


def _nearest(value: float, admissible) -> int:
    ordered = sorted(admissible)
    return int(min(ordered, key=lambda a: (abs(a - value), a)))


def decode_position(x: np.ndarray, space: SearchSpace) -> HyperparamPoint:
    """Snap a continuous position back to an admissible configuration.

    Integer axes round to the nearest admissible value; the heads axis snaps
    only to admissible head counts that divide the decoded d_model (the space
    holds one for every d_model choice). Learning rates clamp into their
    bounds, which 10**x can overshoot by rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (6,):
        raise ValueError(f"expected a 6-dimensional position, got shape {x.shape}")
    d_model = _nearest(x[4], space.d_model)
    head_choices = [h for h in space.attention_heads if d_model % h == 0]
    return HyperparamPoint(
        lstm_hidden=_nearest(x[0], space.lstm_hidden),
        lstm_lr=float(np.clip(10.0 ** x[1], *space.lstm_lr_bounds)),
        transformer_layers=_nearest(x[2], space.transformer_layers),
        attention_heads=_nearest(x[3], head_choices),
        d_model=d_model,
        transformer_lr=float(np.clip(10.0 ** x[5], *space.transformer_lr_bounds)),
    )
