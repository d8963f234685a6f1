"""Plain GD/SGD training loops with schedules, stopping, and recorder hooks.

A "step" updates w <- w - eta_t * grad over the current batch. GD uses the
full dataset every step; SGD draws an independent uniform size-b subset per
step (the covariance identity the trajectory statistics rely on is derived
for that scheme).

train runs one loop over snapshot intervals for a stack of R runs of one
model, n, batch size, max_steps and snapshot_every; one run is the stack
R = 1, with no second path. Each interval gathers its steps' batch rows for
every run at once (models.bind_step_kernel's gather, in blocks of at most
BATCH_BLOCK_ROWS sample rows a run), and the kernel's run takes each
gathered block of steps in one call, its row r bitwise run r's own steps.
The norm guard runs once per interval, on every row's norm after every
step: a row that failed it is reported at its first failing step, while its
later steps in the interval run on, with numpy's overflow and invalid
warnings off, without touching the other rows. Each run keeps its own batch
stream, schedule, recorder, early stop and divergence state. At each
snapshot time the kernel's snapshot pass runs once for the live stack, and
every recorder is called once with its run's row of it (its gradient
read-only); at b = n, whose batch is range(n), the next interval's first
step then takes its gradient from that pass instead of its own, unless
the stack was rebound. Runs
leave the stack there and nowhere else: those that stopped, whose
recorder failed numerically, or that diverged in the interval just run
(whose rows are dropped unrecorded), and the stack is rebound on the
others. Each interval's step sizes are one lr_steps call a run, bitwise
lr_at step by step. step is a block of one step of the same kernel on a
copy of the w it is given. A run's result keeps its step sizes, one
float64 array, and its batch size, not a per-step log.

Batches are drawn by draw_batches, k steps at a time: each run draws its
private batch stream in blocks of whole snapshot intervals, about
BATCH_BLOCK_ROWS rows each, and hands each interval's rows, in order, to
the bound step, which draws nothing itself; bounds.estimate_constants draws
its batch-moment subsets through it too. Its rows equal k successive
sample_batch calls and leave the stream where those calls would. For
b <= FLOYD_MAX_BATCH below n it replays numpy's own Floyd sampling from
uint32 blocks (_floyd_rows). That rests on how Generator.choice consumes the
Philox stream on the numpy this ships with; tests/test_optim.py guards the
equivalence, so a numpy upgrade that breaks it fails a test instead of
silently changing every SGD output. sample_batch, one choice call per
batch, is the tests' oracle and the fallback for the cases the block does
not replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DivergedError, InvalidArgumentError, NumericDomainError
from .models import ModelSpec, bind_step_kernel
from .models import grad_mean_xy  # noqa: F401 (bench/tracing.py wraps optim.grad_mean_xy)
from .numerics import STREAM_BATCH, RngStream
from .trajectory import TrajectoryRecorder

PARAM_NORM_CAP = 1e12
# Rows per draw_batches block in a run's batch stream, rounded down to
# whole snapshot intervals (one interval when it is longer), and the most
# rows _floyd_rows replays from one uint32 block; also the most sample rows
# a run's gathered step operands hold. A stack holds one block per run at a
# time: sweep_noise's 12 cells at 4096 rows (3.9 MB) raised
# its peak RSS by 2.3 MB, at 1024 rows (1 MB) not at all, and each extra
# b = 10 block costs about 95 us.
BATCH_BLOCK_ROWS = 1024
# Largest b the Floyd block replays. Its duplicate check is O(b^2) a row: on
# numpy 2.4.6 (2-vCPU x86, 1000-row blocks, n = 1000 and 10 000) it costs
# 0.5 us a row at b = 10 and 10-14 us at b = 120, against 16-25 us for
# per-row choice, and overtakes choice near b = 200.
FLOYD_MAX_BATCH = 128


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule; fields beyond the chosen kind are ignored."""

    kind: str  # "constant" | "inverse_time" | "cosine"
    eta0: float = 0.05
    c: float = 1.0
    beta: float = 1.0
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
            if self.t_max < 1:
                raise InvalidArgumentError(f"cosine needs t_max >= 1, got {self.t_max}")
        else:
            raise InvalidArgumentError(f"unknown schedule kind {self.kind!r}")


def lr_at(schedule: Schedule, t: int) -> float:
    """Learning rate for step t (0-based).

    Cosine decays from eta0 to 0 at t_max and stays at 0 after it: the
    endpoint rate is 0 and further steps are no-ops, which is the documented
    endpoint behavior rather than an error.
    """
    if t < 0:
        raise InvalidArgumentError(f"step index must be >= 0, got {t}")
    if schedule.kind == "constant":
        return schedule.eta0
    if schedule.kind == "inverse_time":
        return schedule.c / (schedule.beta * (t + 1))
    if t >= schedule.t_max:
        return 0.0
    return 0.5 * schedule.eta0 * (1.0 + math.cos(math.pi * t / schedule.t_max))


def lr_steps(schedule: Schedule, t: int, k: int) -> np.ndarray:
    """The rates of steps t .. t + k - 1, bitwise [lr_at(schedule, t + j) ...].

    constant and inverse_time are one numpy expression each, the latter the
    same IEEE multiply and divide as lr_at. cosine calls lr_at per step,
    since np.cos is not guaranteed to round as math.cos does.
    """
    if t < 0:
        raise InvalidArgumentError(f"step index must be >= 0, got {t}")
    if k < 0:
        raise InvalidArgumentError(f"need k >= 0 steps, got {k}")
    if schedule.kind == "constant":
        return np.full(k, schedule.eta0, dtype=np.float64)
    if schedule.kind == "inverse_time":
        return schedule.c / (schedule.beta * np.arange(t + 1, t + 1 + k))
    return np.array([lr_at(schedule, t + j) for j in range(k)], dtype=np.float64)


@dataclass(frozen=True)
class OptimConfig:
    batch_size: int | None = 10  # None means the full batch: gd
    schedule: Schedule = Schedule(kind="constant", eta0=0.05)
    max_steps: int = 1000
    stop_train_loss: float | None = None
    snapshot_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise InvalidArgumentError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.snapshot_every < 1:
            raise InvalidArgumentError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        # written as the accepted set, so that a NaN threshold, which no loss
        # falls below, is rejected too
        if self.stop_train_loss is not None and not self.stop_train_loss > 0:
            raise InvalidArgumentError(
                f"stop_train_loss must be > 0 or None, got {self.stop_train_loss}")


@dataclass
class TrainResult:
    """Everything a single run produced, in step order."""

    w_final: np.ndarray
    snapshots: list
    etas: np.ndarray  # the step size of each step taken, lr_at(schedule, t)
    batch_size: int
    stopped_at: int = 0  # number of update steps actually taken


def resolve_batch_size(batch_size: int | None, n: int) -> int:
    """The batch size a run of n samples takes: None means the full batch, n."""
    b = n if batch_size is None else batch_size
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= batch_size <= n={n}, got {b}")
    return b


def sample_batch(rng: RngStream, n: int, b: int) -> np.ndarray:
    """b distinct indices, uniform over size-b subsets, ascending order.

    The full batch b = n short-circuits to range(n) without consuming the
    stream, so an SGD run with b = n is bitwise identical to GD. This is one
    Generator.choice call: the oracle draw_batches is tested against, and
    its fallback for rows the block draw does not replay.
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
    read-only range(n) rows and consumes nothing. For b <= FLOYD_MAX_BATCH,
    wherever choice itself runs Floyd's algorithm (n <= 10 000 or
    b <= n // 50) with 32-bit draws (n <= 2**32, which also keeps each
    uint32 draw times its bound within uint64), _floyd_rows replays it from
    uint32 blocks; at b = 1 that is one bounded draw a row, with no
    shuffle. Any other b (numpy's tail-shuffle path, or b above the cutoff)
    calls sample_batch once per row. tests/test_optim.py guards this numpy
    equivalence.
    """
    if not 1 <= b <= n:
        raise InvalidArgumentError(f"need 1 <= b <= n, got b={b}, n={n}")
    if k < 0:
        raise InvalidArgumentError(f"need k >= 0 batches, got {k}")
    if b == n:
        return np.broadcast_to(np.arange(n), (k, n))
    rows = np.empty((k, b), dtype=np.int64)
    if b <= FLOYD_MAX_BATCH and n <= 2 ** 32 and (n <= 10_000 or b <= n // 50):
        _floyd_rows(rng, n, b, rows)
    else:
        for j in range(k):
            rows[j] = sample_batch(rng, n, b)
    return rows


def _floyd_rows(rng: RngStream, n: int, b: int, rows: np.ndarray) -> None:
    """Fill rows with successive sample_batch draws, replayed from uint32 blocks.

    choice(n, b, replace=False) on its Floyd path (Bentley & Floyd, CACM
    1987) takes one Lemire bounded draw (Lemire, ACM TOMACS 2019) per pick,
    with bounds n-b+1 .. n, then shuffles the b picks with bounds b .. 2:
    2b - 1 draws of one uint32 each. A draw u with bound m gives (u*m) >> 32
    and is rejected, consuming another uint32, only when its low word is
    below 2**32 % m. So one integers(0, 2**32, (k, 2b-1)) block replays
    its k rows up to the first rejection: pick c is (u*m) >> 32, or
    n - b + c when an earlier pick of its row already holds that value;
    the shuffle only consumes draws, since each row is sorted. At the first
    rejected row the generator is restored, advanced past the rows already
    replayed, and that row is drawn by sample_batch; a new block resumes
    after it. A block holds at most BATCH_BLOCK_ROWS rows, which bounds the
    uint64 products of a long draw such as estimate_constants' moments; their
    high words are shifted in place, and the low words are the draws
    multiplied in place, wrapping mod 2**32, so a block allocates one uint64
    array besides its draws.
    """
    gen = rng.generator()
    bounds = np.array([*range(n - b + 1, n + 1), *range(b, 1, -1)], dtype=np.uint64)
    thresholds = ((1 << 32) % bounds).astype(np.uint32)
    low_bounds = bounds.astype(np.uint32)  # each bound mod 2**32
    done = 0
    while done < len(rows):
        state = gen.bit_generator.state
        k = min(len(rows) - done, BATCH_BLOCK_ROWS)
        u = gen.integers(0, 1 << 32, size=(k, 2 * b - 1), dtype=np.uint32)
        m = u * bounds
        m >>= 32  # in place: each product's high word, the pick
        u *= low_bounds  # in place, wrapping mod 2**32: each product's low word
        rejected = np.flatnonzero((u < thresholds).any(axis=1))
        good = int(rejected[0]) if len(rejected) else len(m)
        picks = m[:good, :b].T.astype(np.int64, order="C")  # a row per pick
        for c in range(1, b):
            np.putmask(picks[c], (picks[:c] == picks[c]).any(axis=0), n - b + c)
        block = rows[done:done + good]
        block[:] = picks.T
        block.sort(axis=1)
        done += good
        if good < k:
            gen.bit_generator.state = state
            gen.integers(0, 1 << 32, size=(good, 2 * b - 1), dtype=np.uint32)
            rows[done] = sample_batch(rng, n, b)
            done += 1


def _interval_batches(rng: RngStream, n: int, b: int, horizon: int, every: int):
    """Each snapshot interval's (k, b) batch rows, in step order.

    The rows come from draw_batches blocks of whole intervals over the
    horizon: every * max(1, BATCH_BLOCK_ROWS // every) rows, or fewer at the
    horizon, so no interval spans two blocks. Lazy: a block is drawn only
    when an interval needs it.
    """
    rows = every * max(1, BATCH_BLOCK_ROWS // every)
    for start in range(0, horizon, rows):
        block = draw_batches(rng, n, b, min(rows, horizon - start))
        for t in range(0, len(block), every):
            yield block[t:t + every]


def step(spec: ModelSpec, w: np.ndarray, data: Dataset, cfg: OptimConfig, t: int,
         batch_indices: np.ndarray) -> np.ndarray:
    """One update w - eta_t * grad_F_B(w) over the given batch B, out of place.

    train's step, a block of one step on the stack R = 1 of
    bind_step_kernel through the same interval runner, bound to a copy of w
    for this one update, so w itself is left unchanged; the result is
    bitwise the train step's. Raises DivergedError when the updated norm
    fails the cap.
    """
    W, gather, run, _ = bind_step_kernel(spec, [w], [data])
    norm = float(_run_interval(gather, run, np.asarray(batch_indices)[None, None],
                               np.array([[lr_at(cfg.schedule, t)]]))[0, 0])
    if not norm <= PARAM_NORM_CAP:
        raise DivergedError(t, norm)
    return W[0]


def _run_interval(gather, run, batches: np.ndarray, rates: np.ndarray,
                  reuse: bool = False) -> np.ndarray:
    """Run one interval's k steps on the bound stack: its (k, R) norms.

    batches (k, R, b) and rates (k, R) are the steps' rows and step sizes,
    step-major. The operands are gathered in blocks of whole steps holding
    at most BATCH_BLOCK_ROWS sample rows a run (one step when b is larger),
    so their size grows neither with the interval nor with b, and the
    kernel's run takes each gathered block in one call. The steps run with
    numpy's overflow and invalid warnings off, since a diverging row keeps
    stepping until the interval ends; each row's norm after each step comes
    back for the one guard check. reuse passes on to the first block's
    run: its first step may take the gradient already in the kernel's
    buffer.
    """
    k, R, b = batches.shape
    steps = max(1, BATCH_BLOCK_ROWS // b)
    sq = np.empty((k, R, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, k, steps):
            block = slice(start, start + steps)
            run(*gather(batches[block]), rates[block], sq[block], reuse and start == 0)
        return np.sqrt(sq.reshape(k, -1))


_STACK_FIELDS = ("model spec", "n", "batch size", "max_steps", "snapshot_every")


def train(spec, w0, S, S_prime, cfg, recorder=None):
    """Train one run, or a stack of runs, one snapshot interval at a time.

    One run: spec is its ModelSpec, w0 its (P,) initial weights, S its
    training set and cfg its OptimConfig; the result is its TrainResult and
    a failure raises. At each snapshot step t (0, every snapshot_every-th
    step and max_steps) the recorder is called as recorder(t, epoch, eta_t,
    w, stats=row), row being the run's (F, grad, sq_norms, finite) of the
    kernel's snapshot pass on S, run once for the stack, and returns the
    snapshot it recorded; a plain callable must accept stats and may ignore
    it. The run ends there when t == max_steps or the snapshot's F_S is
    below stop_train_loss; otherwise it runs the next interval's
    min(snapshot_every, max_steps - t) steps, so the last call is at the
    returned weights. The steps take their rows in order from the run's
    private batch stream, drawn in draw_batches blocks of whole intervals
    (_interval_batches); rows drawn past an early stop are dropped with the
    stream, so they change no output, and a stop at t = 0 draws nothing.
    w is a row of the live weight stack, which later
    steps overwrite: a recorder that keeps it must copy it, as
    TrajectoryRecorder does. The row's gradient is a read-only view of the
    kernel's buffer, which a full-batch run's next step reads, so a
    recorder that writes into it raises ValueError. w0 is never written. S_prime is read only by the default
    recorder (None gives it no holdout).

    A stack of R runs passes spec, w0, S, cfg and recorder as length-R
    sequences, one entry per run, and S_prime=None: each recorder holds its
    own holdout. The runs must share the model spec, n, the batch size,
    max_steps and snapshot_every (InvalidArgumentError otherwise); seeds,
    schedules, early stops and data differ freely. The result is a list
    with, for each run, its TrainResult, or the DivergedError of its norm
    guard or the NumericDomainError of its recorder. A run leaves the stack
    only at a snapshot time; one that diverged leaves at the next, without
    a recorder call. Each run's snapshots, step sizes and final weights are
    bitwise those of training it alone.
    """
    if isinstance(spec, ModelSpec):
        if recorder is None:
            recorder = TrajectoryRecorder(spec, S, S_prime)
        (outcome,) = _train_stack([spec], [w0], [S], [cfg], [recorder])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    if S_prime is not None or recorder is None:
        raise InvalidArgumentError(
            "a stack takes one recorder per run and no shared holdout"
        )
    return _train_stack(list(spec), list(w0), list(S), list(cfg), list(recorder))


def _train_stack(specs, w0s, Ss, cfgs, recorders) -> list:
    """train's loop over the stack of runs: one outcome per run, in order."""
    R = len(specs)
    if R == 0 or not len(w0s) == len(Ss) == len(cfgs) == len(recorders) == R:
        raise InvalidArgumentError(
            f"a stack needs one entry per run in each of spec, w0, S, cfg and "
            f"recorder; got {[len(x) for x in (specs, w0s, Ss, cfgs, recorders)]}"
        )
    shapes = [(sp, S.n, resolve_batch_size(cfg.batch_size, S.n), cfg.max_steps,
               cfg.snapshot_every) for sp, S, cfg in zip(specs, Ss, cfgs)]
    for name, values in zip(_STACK_FIELDS, zip(*shapes)):
        if any(v != values[0] for v in values):
            raise InvalidArgumentError(f"stacked runs differ in {name}: {list(values)}")
    spec, n, b, horizon, every = shapes[0]
    steps_per_epoch = max(1, math.ceil(n / b))
    streams = [_interval_batches(RngStream(cfg.seed, STREAM_BATCH), n, b, horizon, every)
               for cfg in cfgs]
    snapshots = [[] for _ in range(R)]
    etas = [[] for _ in range(R)]
    outcomes: list = [None] * R
    live = list(range(R))  # the stacked runs, row i of W being run live[i]
    W, gather, run, snapshot = bind_step_kernel(spec, w0s, Ss)
    t = 0
    while True:
        stats = snapshot()
        keep = []
        for i, r in enumerate(live):
            if outcomes[r] is not None:  # diverged in the interval just run
                continue
            try:
                snap = recorders[r](t, t // steps_per_epoch, lr_at(cfgs[r].schedule, t), W[i],
                                    stats=tuple(a[i] for a in stats))
            except NumericDomainError as exc:
                outcomes[r] = exc
                continue
            snapshots[r].append(snap)
            stop = cfgs[r].stop_train_loss
            if t == horizon or (stop is not None and snap.F_S < stop):
                outcomes[r] = TrainResult(W[i].copy(), snapshots[r],
                                          np.concatenate(etas[r] or [np.zeros(0)]), b, t)
            else:
                keep.append(i)
        # a full batch's rows are range(n), so the interval's first step
        # would recompute the snapshot pass's gradient bitwise: it reuses
        # the one in the kernel's buffer, unless the stack was just rebound
        reuse = b == n
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            if not live:
                return outcomes
            W, gather, run, snapshot = bind_step_kernel(spec, W[keep], [Ss[r] for r in live])
            reuse = False
        k = min(every, horizon - t)
        batches = np.stack([next(streams[r]) for r in live], axis=1)  # (k, R, b)
        rates = np.stack([lr_steps(cfgs[r].schedule, t, k) for r in live])
        norms = _run_interval(gather, run, batches, rates.T, reuse)
        failed = ~(norms <= PARAM_NORM_CAP)  # (k, R); a NaN norm fails too
        diverged = failed.any(axis=0)
        for i, r in enumerate(live):
            if diverged[i]:
                j = int(np.argmax(failed[:, i]))  # the row's first failing step
                outcomes[r] = DivergedError(t + j, float(norms[j, i]))
            else:
                etas[r].append(rates[i])
        t += k
