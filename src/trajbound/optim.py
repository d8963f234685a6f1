"""Plain GD/SGD training loops with schedules, stopping, and recorder hooks.

A "step" updates w <- w - eta_t * grad over the current batch. GD uses the
full dataset every step; SGD draws an independent uniform size-b subset per
step by default (the covariance identity the trajectory statistics rely on
is derived for that scheme). An epoch-permutation sampling mode exists for
the epoch-level diagnostics and is flagged in run metadata by the harness.

Every step runs through one kernel, models.bind_step_kernel, followed by
the one norm guard (_bind_step). train binds it once per run, to the run's
own copy of w0, and each step then updates that vector in place; step is
one update of the same kernel on a copy of the w it is given.

Batches are drawn by draw_batches, k steps at a time: train draws one block
per snapshot interval and hands each row to the bound step, which draws
nothing itself; bounds.estimate_constants draws its batch-moment subsets
through it too. Its rows equal k successive sample_batch calls and leave the stream
where those calls would. At b = 1 that is one block integers draw, which
consumes the Philox stream exactly like b = 1 choice calls on the numpy
this ships with; tests/test_optim.py guards that equivalence, so a numpy
upgrade that breaks it fails a test instead of silently changing every SGD
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DivergedError, InvalidArgumentError
from .models import ModelSpec, bind_step_kernel
from .models import grad_mean_xy  # noqa: F401 (bench/tracing.py wraps optim.grad_mean_xy)
from .numerics import STREAM_BATCH, RngStream

PARAM_NORM_CAP = 1e12


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule; fields beyond the chosen kind are ignored."""

    kind: str  # "constant" | "inverse_time" | "cosine"
    eta0: float = 0.05
    c: float = 1.0
    beta: float = 1.0
    eta_min: float = 0.0
    t_max: int = 1

    def __post_init__(self):
        if self.kind == "constant":
            if not (self.eta0 > 0 and math.isfinite(self.eta0)):
                raise InvalidArgumentError(f"constant schedule needs eta0 > 0, got {self.eta0}")
        elif self.kind == "inverse_time":
            if not (self.c > 0 and math.isfinite(self.c)):
                raise InvalidArgumentError(f"inverse_time needs c > 0, got {self.c}")
            if not (self.beta > 0 and math.isfinite(self.beta)):
                raise InvalidArgumentError(f"inverse_time needs beta > 0, got {self.beta}")
        elif self.kind == "cosine":
            if not (self.eta0 > 0 and math.isfinite(self.eta0)):
                raise InvalidArgumentError(f"cosine schedule needs eta0 > 0, got {self.eta0}")
            if self.eta_min < 0 or self.eta_min > self.eta0:
                raise InvalidArgumentError(
                    f"cosine needs 0 <= eta_min <= eta0, got eta_min={self.eta_min}"
                )
            if self.t_max < 1:
                raise InvalidArgumentError(f"cosine needs t_max >= 1, got {self.t_max}")
        else:
            raise InvalidArgumentError(f"unknown schedule kind {self.kind!r}")


def lr_at(schedule: Schedule, t: int) -> float:
    """Learning rate for step t (0-based).

    Cosine past t_max clamps to eta_min; with eta_min = 0 the endpoint rate
    is 0 and further steps are no-ops, which is the documented endpoint
    behavior rather than an error.
    """
    if t < 0:
        raise InvalidArgumentError(f"step index must be >= 0, got {t}")
    if schedule.kind == "constant":
        return schedule.eta0
    if schedule.kind == "inverse_time":
        return schedule.c / (schedule.beta * (t + 1))
    if t >= schedule.t_max:
        return schedule.eta_min
    return schedule.eta_min + 0.5 * (schedule.eta0 - schedule.eta_min) * (
        1.0 + math.cos(math.pi * t / schedule.t_max)
    )


@dataclass(frozen=True)
class OptimConfig:
    mode: str = "sgd"  # "gd" | "sgd"
    batch_size: int | None = 10  # None means full batch
    schedule: Schedule = Schedule(kind="constant", eta0=0.05)
    max_steps: int = 1000
    stop_train_loss: float | None = None
    snapshot_every: int = 1
    seed: int = 0
    sampling: str = "iid"  # "iid" | "permute" (epoch permutation)

    def __post_init__(self):
        if self.mode not in ("gd", "sgd"):
            raise InvalidArgumentError(f"unknown mode {self.mode!r}")
        if self.sampling not in ("iid", "permute"):
            raise InvalidArgumentError(f"unknown sampling {self.sampling!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise InvalidArgumentError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.snapshot_every < 1:
            raise InvalidArgumentError(f"snapshot_every must be >= 1, got {self.snapshot_every}")


@dataclass
class StepRecord:
    t: int
    eta_t: float
    batch_indices: np.ndarray


@dataclass
class TrainResult:
    """Everything a single run produced, in step order."""

    w_final: np.ndarray
    snapshots: list
    records: list[StepRecord] = field(default_factory=list)
    stopped_at: int = 0  # number of update steps actually taken


def resolve_batch_size(cfg: OptimConfig, n: int) -> int:
    if cfg.mode == "gd":
        if cfg.batch_size is not None and cfg.batch_size != n:
            raise InvalidArgumentError(
                f"gd uses the full batch; batch_size={cfg.batch_size} with n={n}"
            )
        return n
    b = n if cfg.batch_size is None else cfg.batch_size
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= batch_size <= n={n}, got {b}")
    return b


def sample_batch(rng: RngStream, n: int, b: int) -> np.ndarray:
    """b distinct indices, uniform over size-b subsets, ascending order.

    The full batch b = n short-circuits to range(n) without consuming the
    stream, so an SGD run with b = n is bitwise identical to GD. To draw
    several steps' batches use draw_batches, whose b = 1 block draw stands
    in for this function's choice call.
    """
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= b <= n, got b={b}, n={n}")
    if b == n:
        return np.arange(n)
    idx = rng.generator().choice(n, size=b, replace=False)
    return np.sort(idx)


def draw_batches(rng: RngStream, n: int, b: int, k: int) -> np.ndarray:
    """(k, b) index rows: row j is the j-th of k successive sample_batch calls.

    The stream is left in the state those calls would leave it. b = n gives
    read-only range(n) rows and consumes nothing. b = 1 is one block
    integers(0, n) draw: for n <= 2**32, Generator.choice(n, size=1,
    replace=False) takes one bounded 32-bit draw per call, as integers does
    per element, so the two consume the Philox stream identically (a numpy
    equivalence that tests/test_optim.py guards). Any other b calls
    sample_batch once per row.
    """
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= b <= n, got b={b}, n={n}")
    if k < 0:
        raise InvalidArgumentError(f"need k >= 0 batches, got {k}")
    if b == n:
        return np.broadcast_to(np.arange(n), (k, n))
    if b == 1:
        return rng.generator().integers(0, n, size=(k, 1))
    rows = np.empty((k, b), dtype=np.int64)
    for j in range(k):
        rows[j] = sample_batch(rng, n, b)
    return rows


def _bind_step(spec: ModelSpec, w0: np.ndarray, data: Dataset, cfg: OptimConfig):
    """The run's weights w, a copy of w0, and its step: (w, run).

    run(t, batch_indices) updates w in place by one bind_step_kernel update
    at eta_t and returns the StepRecord. It raises DivergedError on blow-up;
    the only check is the norm guard on the updated weights. A NaN or inf in
    the gradient reaches w even at eta_t = 0 (0 * inf is NaN), and a
    non-finite norm fails the comparison.
    """
    w, update = bind_step_kernel(spec, w0, data)

    def run(t: int, batch_indices: np.ndarray) -> StepRecord:
        eta = lr_at(cfg.schedule, t)
        norm = update(batch_indices, eta)
        if not norm <= PARAM_NORM_CAP:
            raise DivergedError(t, norm)
        return StepRecord(t=t, eta_t=eta, batch_indices=batch_indices)

    return w, run


def step(spec: ModelSpec, w: np.ndarray, data: Dataset, cfg: OptimConfig, t: int,
         batch_indices: np.ndarray) -> tuple[np.ndarray, StepRecord]:
    """One update w - eta_t * grad_F_B(w) over the given batch B, out of place.

    train's step path (_bind_step) bound to a copy of w for this one update,
    so w itself is left unchanged; the result is bitwise the train step's.
    Raises DivergedError when the updated norm fails the cap.
    """
    w_next, run = _bind_step(spec, w, data, cfg)
    return w_next, run(t, batch_indices)


def _permute_batches(gen: np.random.Generator, n: int, b: int) -> list[np.ndarray]:
    """Consecutive size-b slices of a fresh permutation (last may be short)."""
    perm = gen.permutation(n)
    return [np.sort(perm[i:i + b]) for i in range(0, n, b)]


def train(spec: ModelSpec, w0: np.ndarray, S: Dataset, S_prime: Dataset | None,
          cfg: OptimConfig, recorder=None) -> TrainResult:
    """Run the configured loop, invoking the recorder at snapshot steps.

    The step kernel is bound once, to a copy of w0 that every step updates
    in place, so w0 is never written. The recorder is called as
    recorder(t, epoch, eta_t, w) at step 0, every snapshot_every-th step,
    and the final step; it returns the snapshot it recorded; the last call
    is at the returned weights. w is the run's live vector, which later
    steps overwrite: a recorder that keeps it must copy it, as
    TrajectoryRecorder does. S_prime is read only by the default recorder
    (None gives it no holdout). The early-stop rule is evaluated at
    snapshot steps, where F_S is already being computed.
    With iid sampling each snapshot interval's batches are drawn as one
    draw_batches block; a run stops only at a snapshot step, so every drawn
    row is used.
    """
    if recorder is None:
        from .trajectory import TrajectoryRecorder

        recorder = TrajectoryRecorder(spec, S, S_prime)
    b = resolve_batch_size(cfg, S.n)
    steps_per_epoch = max(1, math.ceil(S.n / b))
    rng = RngStream(cfg.seed, STREAM_BATCH)
    snapshots = []
    records: list[StepRecord] = []

    def record(t_now: int, w_now: np.ndarray):
        snap = recorder(t_now, t_now // steps_per_epoch, lr_at(cfg.schedule, t_now), w_now)
        snapshots.append(snap)
        return snap

    w, run = _bind_step(spec, w0, S, cfg)
    snap = record(0, w)
    if cfg.stop_train_loss is not None and snap.F_S < cfg.stop_train_loss:
        return TrainResult(w, snapshots, records, 0)

    pending: list[np.ndarray] = []
    for t in range(cfg.max_steps):
        if cfg.sampling == "permute":
            if not pending:
                pending = _permute_batches(rng.generator(), S.n, b)
            batch = pending.pop(0)
        else:
            if t % cfg.snapshot_every == 0:
                block = draw_batches(rng, S.n, b,
                                     min(cfg.snapshot_every, cfg.max_steps - t))
            batch = block[t % cfg.snapshot_every]
        records.append(run(t, batch))
        done = t + 1 == cfg.max_steps
        if (t + 1) % cfg.snapshot_every == 0 or done:
            snap = record(t + 1, w)
            if cfg.stop_train_loss is not None and snap.F_S < cfg.stop_train_loss:
                return TrainResult(w, snapshots, records, t + 1)
    return TrainResult(w, snapshots, records, len(records))
