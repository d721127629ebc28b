"""The benchmark's four workloads and the harness that measures them.

``adapt`` is a closed loop: one caller runs adaptation steps back to back,
in ``ROUNDS`` rounds of whole round-robin cycles.  ``chat``,
``prefix-share`` and ``vote-exit`` serve ``SLICES`` seeded sets of
``BURST_SIZE`` requests, in turn, in two kinds of round:

* **burst**: a whole set is submitted at once; a round's generated
  tokens per second is the throughput at full batches.
* **paced**: half of a set arrives as an open loop on a fixed Poisson
  schedule.  Each request is timed from when it was *due*, so a stall
  also delays the requests queued behind it.  Small paced rounds make
  many of them, spread over the run.

Every time is in reference-host seconds (:mod:`bench.hostspeed`): the
wall time of each operation, scaled by how fast a fixed kernel timed
between operations ran just before it.  The open loop runs on a clock
made of those times: each scheduler step advances it by the step's
reference-host time, and while the scheduler is idle it jumps to the
next arrival instead of sleeping.  Which requests share a batch then
depends on the program, not on how busy the host was, and a paced round
takes only its busy time.  Distributions over all rounds, p90 included,
go to the run record as ``info``.

The amount of work follows from ``--seconds`` and round sizes frozen at
the seed commit, so a given ``(seed, seconds)`` always runs the same
inputs and produces the same tokens and losses; a faster commit simply
finishes sooner.  The shape of the serving traffic is the
same for every seed: lengths, sampled share, priorities and arrival gaps
are evenly spread quantiles in one fixed order.  The seed picks what the
requests say (prompt tokens, system prompts, sampling seeds).  Per-seed
traffic shapes made the medians of a 24-request round differ by 10-20%
between seeds, and prefix-share's peak memory by 2x (each decode shape it
meets captures a graph with its own KV slabs).  The adaptation batches are
the same for every seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import time
from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import AdaptiveTuningConfig, EdgeLLM, EdgeLLMConfig
from repro.obs import use_registry
from repro.serve import (
    CachePool,
    GenerationEngine,
    Request,
    Scheduler,
    SchedulerConfig,
    serve_batch,
)
from repro.tensor import get_arena, nll_from_logits, no_grad

from . import fixture, probes
from .hostspeed import HostSpeed
from .stats import median, percentile
from .trace import (
    EngineProxy,
    PoolProxy,
    Span,
    Tracer,
    replay_span,
    self_time,
    wrap_method,
)

SETUP_REPEATS = 3
MIN_TAIL_SAMPLES = 100  # p90 with ten samples beyond it
BATCH, SEQ = 8, 32
EXIT_POINTS = [3, 6, 8]
BUDGET = 0.3
MAX_BATCH = 8
BURST_SIZE = 3 * MAX_BATCH  # requests per burst round
PACED_SIZE = BURST_SIZE // 2  # of them, requests per paced round
# Request sets per run.  How fast a request decodes depends on what it
# says (speculation accepts more of some texts than of others), so
# metrics over one set of 24 moved 15-20% from seed to seed.
SLICES = 4
BURST_SHARE = 0.4  # of --seconds; the paced rounds get the rest
ROUNDS = 6  # adaptation rounds per run (traced runs trace every other)
MIN_ROUND_CYCLES = 4
RESERVE_CHECKS = 16
SHAPE_SEED = 0  # fixes the shape of the serving traffic for every --seed
WARMUP_SEED = 10_000  # the serving warm-up's request set
ADAPT_DATA_SEED = 0  # fixes the adaptation batches for every --seed
# In a burst round, top-tier requests arrive this long after the rest:
# into a full batch, so they preempt.
PRIORITY_DELAY_S = 0.001

# Target-language stream split: training windows, calibration/eval.
TRAIN_STREAMS = range(0, 80)
CALIB_STREAMS = range(80, 88)
EVAL_STREAMS = range(88, 96)
# Pretraining-language streams: eval windows for the dense model.
DENSE_EVAL_STREAMS = range(40, 48)


def _null_span(*_, **__):
    return contextlib.nullcontext()


def _windows(bank: np.ndarray, rng: np.random.Generator, n: int,
             streams: Sequence[int], length: int = SEQ + 1) -> np.ndarray:
    rows = rng.choice(list(streams), n)
    starts = rng.integers(0, bank.shape[1] - length, n)
    return np.stack([bank[r, s:s + length] for r, s in zip(rows, starts)])


def _fixed_windows(bank, seed, n, streams):
    return _windows(bank, np.random.default_rng(seed), n, streams)


def stratified_ints(rng: np.random.Generator, n: int, low: int, high: int) -> np.ndarray:
    """``n`` integers evenly spread over ``[low, high]``, in seeded order."""
    return rng.permutation(np.round(np.linspace(low, high, n)).astype(int))


def stratified_flags(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """Exactly ``round(share * n)`` True flags, in seeded order."""
    return rng.permutation(np.arange(n) < round(share * n))


def stratified_arrivals(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Arrival offsets (first at 0) whose gaps are the exponential
    quantiles of a Poisson process at ``rate``, in seeded order."""
    gaps = -np.log1p(-(np.arange(n - 1) + 0.5) / (n - 1)) / rate
    return np.concatenate([[0.0], np.cumsum(rng.permutation(gaps))])


def _spans(bank: np.ndarray, rng: np.random.Generator, rows: Sequence[int],
           lengths: Sequence[int]) -> List[np.ndarray]:
    """One token span per length, each from a seeded bank row and offset."""
    out = []
    for length in lengths:
        row = int(rng.choice(list(rows)))
        start = int(rng.integers(0, bank.shape[1] - length + 1))
        out.append(bank[row, start:start + length])
    return out


def _requests(prefix: str, prompts, shape: np.random.Generator,
              tokens: np.random.Generator, new_tokens, sampled_share: float,
              priorities=None) -> List[Request]:
    """Greedy requests, or top-k 8 sampling (exactly ``sampled_share`` of
    them, placed by ``shape``) with each request's own seed from
    ``tokens``."""
    n = len(prompts)
    lengths = stratified_ints(shape, n, *new_tokens)
    sampled = stratified_flags(shape, n, sampled_share)
    priorities = np.zeros(n, dtype=int) if priorities is None else priorities
    return [
        Request(f"{prefix}-{i}", prompt=prompts[i], max_new_tokens=int(lengths[i]),
                greedy=not sampled[i], top_k=8 if sampled[i] else None,
                seed=int(tokens.integers(2**31)), priority=int(priorities[i]))
        for i in range(n)
    ]


def _ppl(logits_fn, windows: np.ndarray) -> float:
    with no_grad():
        nll = nll_from_logits(logits_fn(windows[:, :-1]), windows[:, 1:])
    return float(np.exp(np.asarray(nll, dtype=np.float64).mean()))


def _edge(model) -> EdgeLLM:
    config = EdgeLLMConfig(
        compute_budget=BUDGET,
        tuning=AdaptiveTuningConfig(window=2, exit_points=EXIT_POINTS,
                                    schedule="round_robin", seed=0),
    )
    return EdgeLLM(model, config)


def _compress(fx, phases) -> EdgeLLM:
    calib = _fixed_windows(fx.target, 1, 4, CALIB_STREAMS)
    with phases("compress"):
        edge = _edge(fx.model)
        edge.compress(calib[:, :-1], calib[:, 1:])
    return edge


def _batches(windows: np.ndarray):
    n = len(windows) // BATCH
    return [(w[:, :-1], w[:, 1:]) for w in windows[:n * BATCH].reshape(n, BATCH, -1)]


class Phases:
    """Reference-host time of each named set-up phase.  The host's speed
    is sampled before and after each phase; samples taken inside one (the
    warm-up round) are not counted."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.seconds: Dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        self.speed.sample()
        spent = self.speed.spent
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start - (self.speed.spent - spent)
            self.speed.sample()
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                wall * self.speed.scale())

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


@dataclasses.dataclass
class Outcome:
    """What a workload's measurement produced, before it becomes metrics."""

    end_to_end: Dict[str, float]
    layers: Dict[str, float]
    info: Dict[str, float]  # written to the run record, not declared metrics
    attempted: int
    failed: int
    checks: Dict[str, object]


class Workload:
    name = ""
    KERNEL = "serve"  # the host-speed kernel (bench.hostspeed.KERNELS)

    def __init__(self, fx_path: str, seed: int, seconds: float, trace: bool):
        self.fx_path = fx_path
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.speed = HostSpeed(self.KERNEL)

    def setup(self):
        """Set up from scratch; returns ``(state, Phases)``."""
        raise NotImplementedError

    def measure(self, state) -> Outcome:
        raise NotImplementedError

    def set_up_repeatedly(self):
        """Run :meth:`setup` ``SETUP_REPEATS`` times; the last state is
        measured.  Returns ``(state, [Phases, ...])``."""
        reps, state = [], None
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            state, phases = self.setup()
            reps.append(phases)
        return state, reps

    def span(self, traced: bool):
        return self.tracer.span if traced else _null_span

    @staticmethod
    def probe_inputs(fx):
        rng = np.random.default_rng(7)
        ids = _windows(fx.streams, rng, BATCH, DENSE_EVAL_STREAMS)[:, :SEQ]
        context = _windows(fx.streams, rng, BATCH, DENSE_EVAL_STREAMS, 129)
        return ids, context[:, :128], context[:, 128:]


# ----------------------------------------------------------------------
# adapt: the paper's on-device adaptation loop
# ----------------------------------------------------------------------


class Adapt(Workload):
    """Closed loop: ``EdgeLLM.compress`` then ``AdaptiveLayerTrainer``
    steps at batch 8 x 32, exits [3, 6, 8], window 2, round-robin.

    The unit of latency is one round-robin *cycle* (three steps, one per
    exit): single steps fall into three clusters by exit depth, and the
    median of such a mixture sits on a cluster edge.  The run is split
    into ``ROUNDS`` rounds of whole cycles, so that a traced run can pair
    traced rounds with untraced ones.
    """

    name = "adapt"
    KERNEL = "train"
    CYCLES_PER_S = 11.0  # seed commit, reference-host seconds
    CYCLE_SLO_MS = 128.0  # 1.4x the seed commit's median cycle
    WARMUP_STEPS = 12

    def setup(self):
        phases = Phases(self.speed)
        with phases("load"):
            fx = fixture.load(self.fx_path)
        edge = _compress(fx, phases)
        fx.model.eval()
        eval_windows = _fixed_windows(fx.target, 3, 64, EVAL_STREAMS)
        pre_ppl = _ppl(fx.model, eval_windows)  # untimed check input
        with phases("warmup"):
            fx.model.train()
            warm = _fixed_windows(fx.target, 2, self.WARMUP_STEPS * BATCH,
                                  TRAIN_STREAMS)
            edge.adapt(_batches(warm))
        return (fx, edge, eval_windows, pre_ppl), phases

    def plan(self, fx):
        """The batches, split into rounds of whole cycles.

        They do not depend on the seed: the adapted model, its perplexity
        and the loss trajectory are then one value per commit, so a bound
        on ``ppl`` can be tight.  Step times do not depend on token
        values."""
        period = len(EXIT_POINTS)
        per_round = max(MIN_ROUND_CYCLES,
                        round(self.seconds * self.CYCLES_PER_S / ROUNDS))
        rng = np.random.default_rng(ADAPT_DATA_SEED)
        batches = _batches(_windows(fx.target, rng, ROUNDS * per_round * period * BATCH,
                                    TRAIN_STREAMS))
        size = per_round * period
        return [batches[i:i + size] for i in range(0, len(batches), size)]

    def measure(self, state) -> Outcome:
        fx, edge, eval_windows, pre_ppl = state
        trainer = edge.trainer
        speed = self.speed
        period = len(EXIT_POINTS)
        rounds = self.plan(fx)
        first_sample = len(speed.samples)
        speed.settle()
        losses, cycles, deepest = [], [], []
        rates = {False: [], True: []}  # per round: trained tokens per second
        traced_rounds = []
        for k, batches in enumerate(rounds):
            # A traced run traces one round of each consecutive pair,
            # alternating which goes first; the other is the overhead
            # baseline.
            traced = self.trace and k % 2 != (k // 2) % 2
            unwrap = wrap_method(trainer.optimizer, "step", self.tracer,
                                 "adaptive.optimizer") if traced else None
            step_span = partial(replay_span, self.tracer) if traced else _null_span
            speed.span = self.span(traced)
            steps, stats = [], []  # reference-host seconds, StepStats
            with use_registry() as reg, self.span(traced)("phase.adapt") as phase:
                for x, y in batches:
                    start = time.perf_counter()
                    with step_span("adaptive.step") as record:
                        st = trainer.train_step(x, y)
                    steps.append(speed.tick(time.perf_counter() - start))
                    losses.append(st.loss)
                    stats.append(st)
                    if traced:
                        record.args["exit"] = st.window.exit_point
            speed.span = _null_span
            if traced:
                unwrap()
                traced_rounds.append((phase, reg, stats))
            rates[traced].append(len(batches) * BATCH * SEQ / sum(steps))
            if traced:
                continue
            cycles += [sum(steps[i:i + period]) * 1e3
                       for i in range(0, len(steps), period)]
            deepest += [s * 1e3 for s, st in zip(steps, stats)
                        if st.window.exit_point == EXIT_POINTS[-1]]
        fx.model.eval()
        voting = _fixed_windows(fx.target, 4, 32, CALIB_STREAMS)
        edge.calibrate_voting(voting[:, :-1], voting[:, 1:])
        adapt_ppl = _ppl(edge.logits, eval_windows)

        loss_arr = np.asarray(losses, dtype=np.float64)
        nonfinite = int((~np.isfinite(loss_arr)).sum())
        checks = {
            "finite_losses": nonfinite == 0,
            "ppl_improved": adapt_ppl < pre_ppl,
            "pre_adapt_ppl": pre_ppl,
            "loss_sha": hashlib.sha256(loss_arr.tobytes()).hexdigest()[:16],
        }
        failed = nonfinite + int(not checks["ppl_improved"])
        e2e = {
            "tokens_per_s": median(rates[False]),
            "latency_ms": median(cycles),
            # A full-depth step (the deepest exit) per trained token.
            "token_ms": median(deepest) / (BATCH * SEQ),
            "goodput_frac": float(np.mean([ms <= self.CYCLE_SLO_MS for ms in cycles])),
            "ppl": adapt_ppl,
        }
        info = dict(_tails("cycle_ms", cycles), rounds=len(rounds),
                    tokens_per_s_rounds=rates[False],
                    **_kernel_info(speed.samples[first_sample:]))
        layers = {"bench.host_slowdown": speed.slowdown(first_sample)}
        if self.trace:
            layers["bench.trace_overhead_frac"] = _overhead(rates[False], rates[True])
            layers.update(self._layers(traced_rounds))
            layers.update(probes.run(fx.model, *self.probe_inputs(fx), edge.policy,
                                     speed))
        return Outcome(e2e, layers, info, attempted=len(losses), failed=failed,
                       checks=checks)

    def _layers(self, traced_rounds) -> Dict[str, float]:
        phases = [phase for phase, _, _ in traced_rounds]
        stats = [st for _, _, round_stats in traced_rounds for st in round_stats]
        spans = self.tracer.within(phases)
        wall = sum(p.duration for p in phases)
        steps = [s for s in spans if s.name == "adaptive.step"]
        out = _zero_serving_layers()
        out.update({
            "bench.span_coverage_frac": sum(p.child_s for p in phases) / wall,
            "bench.timed_s": wall,
            "adaptive.fwd_bwd_frac": self_time(spans, "adaptive.step") / wall,
            "adaptive.optimizer_frac": self_time(spans, "adaptive.optimizer") / wall,
            "adaptive.steps": len(stats),
            "adaptive.peak_tape_kb": max(s.peak_tape_bytes for s in stats) / 1024,
        })
        for point in EXIT_POINTS:
            out[f"adaptive.step_frac.exit{point}"] = sum(
                s.duration for s in steps if s.args.get("exit") == point) / wall
        hits = sum(s.fold_hits for s in stats)
        misses = sum(s.fold_misses for s in stats)
        out["nn.fold_miss_frac"] = misses / (hits + misses) if hits + misses else 0.0
        out.update(_tensor_layers([reg for _, reg, _ in traced_rounds], steps))
        return out


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Served:
    """One round.  Times are on the round's clock, in reference-host
    seconds from the start of the round."""

    results: Dict[str, object]  # request id -> Result
    due: Dict[str, float]  # request id -> due time
    step_start: Dict[int, float]  # scheduler step -> clock when it began
    step_end: Dict[int, float]  # scheduler step -> clock when it ended
    end: float  # clock at the end of the round
    busy: float  # of it, reference-host seconds the program ran
    phase: object  # the phase span (None when untraced)
    registry: object

    @property
    def tokens(self) -> int:
        return sum(len(r.tokens) for r in self.results.values())

    def ttft_ms(self, request_id: str) -> float:
        """Due time to the end of the step that emitted the first token.
        A request that never produced a token is charged the whole phase
        (it misses every limit; the run is already incorrect)."""
        first = self.step_end.get(self.results[request_id].first_token_step, self.end)
        return (first - self.due[request_id]) * 1e3

    def tpot_ms(self, request_id: str) -> float:
        """(finish - first token) / (tokens - 1) for one request."""
        r = self.results[request_id]
        first = self.step_end.get(r.first_token_step, self.end)
        finished = self.step_end.get(r.finished_step, self.end)
        return (finished - first) * 1e3 / max(len(r.tokens) - 1, 1)


class Serving(Workload):
    """Seeded request sets, served in interleaved burst and paced rounds
    through ``Scheduler`` + ``CachePool``.

    Every round of a set serves the same requests, so it must produce the
    same tokens.
    """

    RATE = 1.0  # paced arrivals per reference-host second
    # Seed-commit reference-host seconds per round (sizing only): a burst
    # round, and the busy part of a paced round.
    BURST_ROUND_S = 1.0
    PACED_BUSY_S = 1.0
    # About 1.25x the seed commit's p99 over (request, paced round) pairs.
    TTFT_SLO_MS = 1.0
    TPOT_SLO_MS = 1.0
    share_prefixes = False

    # -- workload-specific pieces ---------------------------------------
    def make_requests(self, fx, shape, tokens, n: int, prefix: str) -> List[Request]:
        """``n`` requests: ``shape`` draws lengths, mix and order, ``tokens``
        draws prompt tokens and sampling seeds."""
        raise NotImplementedError

    def prepare(self, fx, phases):
        """Model preparation before the engine is built; returns
        ``(model, engine_kwargs, extra)``."""
        return fx.model, {}, None

    def budget(self, requests: Sequence[Request]) -> int:
        return MAX_BATCH * max(r.reserved_tokens for r in requests)

    def reserve_kwargs(self, state) -> Dict:
        return {}

    def eval_ppl(self, state) -> float:
        fx = state["fx"]
        return _ppl(state["model"], _fixed_windows(fx.streams, 3, 64,
                                                   DENSE_EVAL_STREAMS))

    def policy(self, state):
        return None

    def warmup_bursts(self, fx) -> List[List[Request]]:
        """Extra burst rounds for the warm-up, beyond the fixed set's."""
        return []

    # -- harness ----------------------------------------------------------
    def setup(self):
        phases = Phases(self.speed)
        with phases("load"):
            fx = fixture.load(self.fx_path)
        model, kwargs, extra = self.prepare(fx, phases)
        with phases("build"):
            engine = GenerationEngine(model, **kwargs)
        with phases("warmup"):
            # One burst and one paced round of a fixed request set, so that
            # the graphs and buffers of both kinds of round exist before
            # the measurement, whatever the seed.
            burst, paced, offsets = self.request_set(
                fx, np.random.default_rng(WARMUP_SEED), "warm")
            budget = self.budget(burst)
            self._serve(engine, model, *self.burst_schedule(burst), budget)
            self._serve(engine, model, paced, offsets, budget)
            for requests in self.warmup_bursts(fx):
                self._serve(engine, model, requests, np.zeros(len(requests)), budget)
        state = {"fx": fx, "model": model, "engine": engine,
                 "kwargs": kwargs, "extra": extra}
        return state, phases

    def request_set(self, fx, tokens: np.random.Generator, prefix: str):
        """A burst set, its paced subset (every other request by prompt
        length) and the paced arrival offsets.  The shape of the traffic
        (lengths, mix, priorities, arrival gaps and their order) is the
        same for every set; ``tokens`` picks prompt tokens, system prompts
        and sampling seeds."""
        shape = np.random.default_rng(SHAPE_SEED)
        burst = self.make_requests(fx, shape, tokens, BURST_SIZE, prefix)
        by_length = np.argsort([len(r.prompt) for r in burst], kind="stable")
        paced = [burst[i] for i in sorted(by_length[::2])]
        return burst, paced, stratified_arrivals(shape, PACED_SIZE, self.RATE)

    def plan(self, fx):
        """``SLICES`` seeded request sets (:meth:`request_set`) as
        ``(burst, paced)`` pairs; the paced arrival offsets, the same for
        every set; the number of burst and paced rounds (multiples of
        ``SLICES``: round ``k`` of each kind serves slice ``k % SLICES``);
        and the rng for the checks.  Every seed measures the same load."""
        rng = np.random.default_rng(self.seed)
        slices = []
        for s in range(SLICES):
            burst, paced, offsets = self.request_set(fx, rng, f"{self.name}.{s}")
            slices.append((burst, paced))
        burst_rounds = _rounds(BURST_SHARE * self.seconds / self.BURST_ROUND_S)
        paced_rounds = _rounds((1 - BURST_SHARE) * self.seconds / self.PACED_BUSY_S)
        return slices, offsets, burst_rounds, paced_rounds, rng

    @staticmethod
    def burst_schedule(burst: List[Request]):
        """Submission order and offsets of a burst round: everything at
        once, except that with several tiers the top tier comes
        ``PRIORITY_DELAY_S`` later."""
        top = min(r.priority for r in burst)
        tiered = any(r.priority != top for r in burst)
        order = sorted(burst, key=lambda r: tiered and r.priority == top)
        offsets = [PRIORITY_DELAY_S if tiered and r.priority == top else 0.0
                   for r in order]
        return order, np.array(offsets)

    def _serve(self, engine, model, requests, offsets, budget,
               traced: bool = False, phase_name: str = "phase") -> Served:
        tracer = self.tracer if traced else None
        span = self.span(traced)
        speed = self.speed
        pool = CachePool(model.num_layers, budget,
                         share_prefixes=self.share_prefixes)
        scheduler = Scheduler(
            EngineProxy(engine, tracer) if traced else engine,
            PoolProxy(pool, tracer) if traced else pool,
            SchedulerConfig(max_batch_size=MAX_BATCH),
        )
        n = len(requests)
        step_start: Dict[int, float] = {}
        step_end: Dict[int, float] = {}
        due: Dict[str, float] = {}
        clock = busy = 0.0
        i = 0
        speed.span = span
        with use_registry() as reg, span(phase_name) as phase:
            while i < n or not scheduler.idle:
                began, start = clock, time.perf_counter()
                if i < n and offsets[i] <= clock:
                    with span("bench.submit"):
                        while i < n and offsets[i] <= clock:
                            due[requests[i].request_id] = offsets[i]
                            scheduler.submit(requests[i])
                            i += 1
                if scheduler.idle:
                    ran = speed.tick(time.perf_counter() - start)
                    busy += ran
                    # Nothing runs until the next arrival.
                    clock = max(clock + ran, offsets[i]) if i < n else clock + ran
                    continue
                with span("sched.step") as record:
                    scheduler.step()
                    if traced:
                        record.args["step"] = scheduler.current_step
                ran = speed.tick(time.perf_counter() - start)
                busy += ran
                clock += ran
                step_start[scheduler.current_step] = began
                step_end[scheduler.current_step] = clock
        speed.span = _null_span
        results = {r.request_id: r for r in scheduler.run()}
        return Served(results, due, step_start, step_end, clock, busy, phase, reg)

    def measure(self, state) -> Outcome:
        fx, model, engine = state["fx"], state["model"], state["engine"]
        slices, offsets, burst_rounds, paced_rounds, rng = self.plan(fx)
        requests = [r for burst, _ in slices for r in burst]
        budget = self.budget(requests)
        schedules = [self.burst_schedule(burst) for burst, _ in slices]
        # Burst and paced rounds are interleaved.  A traced run pairs every
        # burst round with a traced one of the same slice, alternating
        # which goes first; the untraced ones are the overhead baseline.
        first_sample = len(self.speed.samples)
        self.speed.settle()
        rates: Dict[bool, List[float]] = {False: [], True: []}
        bursts: List[Served] = []
        paced: List[Served] = []
        for kind, k in _interleave(burst_rounds, paced_rounds):
            burst_set, paced_set = slices[k % SLICES]
            if kind == "paced":
                paced.append(self._serve(engine, model, paced_set, offsets, budget,
                                         traced=self.trace, phase_name="phase.paced"))
                continue
            pair = (False, True) if k % 2 == 0 else (True, False)
            for traced in pair if self.trace else (False,):
                bursts.append(self._serve(engine, model, *schedules[k % SLICES],
                                          budget, traced=traced, phase_name="phase.burst"))
                rates[traced].append(bursts[-1].tokens / bursts[-1].end)
        slowdown = self.speed.slowdown(first_sample)

        # Correctness: every request completes, and every round produces
        # the same tokens as the first burst round of its slice and as a
        # sample re-served one at a time without speculation or prefix
        # sharing.
        reference: Dict[str, List[int]] = {}
        for served in bursts:
            for rid, r in served.results.items():
                reference.setdefault(rid, r.tokens)
        picked = [requests[i] for i in sorted(
            rng.choice(len(requests), RESERVE_CHECKS, replace=False))]
        alone = serve_batch(model, picked, max_batch_size=1, **self.reserve_kwargs(state))
        incomplete = sum(r.finish_reason not in ("length", "eos")
                         for served in bursts + paced for r in served.results.values())
        round_mismatch = sum(r.tokens != reference[rid] for served in bursts + paced
                             for rid, r in served.results.items())
        alone_mismatch = sum(r.tokens != reference[r.request_id] for r in alone)
        checks = {"incomplete": incomplete, "round_mismatch": round_mismatch,
                  "one_at_a_time_mismatch": alone_mismatch}

        # Every (request, paced round) pair counts.
        ttft = [p.ttft_ms(rid) for p in paced for rid in p.due]
        tpot = [p.tpot_ms(rid) for p in paced for rid in p.due]
        good = [p.results[rid].finish_reason in ("length", "eos")
                and p.ttft_ms(rid) <= self.TTFT_SLO_MS
                and p.tpot_ms(rid) <= self.TPOT_SLO_MS
                for p in paced for rid in p.due]
        e2e = {
            "tokens_per_s": median(rates[False]),
            "latency_ms": median(ttft),
            # A mean: with speculation, per-request TPOT spreads evenly
            # over 0.8-3.8 ms, and on prefix-share its median moved 10%
            # between identical runs while the mean moved 4%.
            "token_ms": float(np.mean(tpot)),
            "goodput_frac": float(np.mean(good)),
            "ppl": self.eval_ppl(state),
        }
        info = dict(
            _tails("ttft_ms", ttft), **_tails("tpot_ms", tpot),
            burst_tokens_per_s=rates[False], burst_rounds=burst_rounds,
            burst_round_s=median([b.end for b in bursts]),
            paced_rounds=paced_rounds, paced_round_s=median([p.end for p in paced]),
            paced_busy_s=median([p.busy for p in paced]),
            **_kernel_info(self.speed.samples[first_sample:]),
        )
        layers = {"bench.host_slowdown": slowdown}
        if self.trace:
            layers["bench.trace_overhead_frac"] = _overhead(rates[False], rates[True])
            layers.update(self._layers(paced, [b for b in bursts if b.phase]))
            layers.update(probes.run(model, *self.probe_inputs(fx), self.policy(state),
                                     self.speed))
        attempted = sum(len(s.results) for s in bursts + paced) + len(alone)
        failed = incomplete + round_mismatch + alone_mismatch
        return Outcome(e2e, layers, info, attempted, failed, checks)

    def _layers(self, paced: List[Served], bursts: List[Served]) -> Dict[str, float]:
        """Layer shares of the traced paced rounds' wall time; preemptions
        are counted over every traced round (they happen in bursts)."""
        phases = [p.phase for p in paced]
        wall = sum(p.duration for p in phases)
        spans = self.tracer.within(phases)
        registries = [p.registry for p in paced]
        counters = _sum_counters(registries)

        def count(name):
            return counters.get(name, 0)

        def frac(name):
            return self_time(spans, name) / wall

        prefills = [s.args["tokens"] for s in spans if s.name == "engine.prefill"]
        decode_spans = [s for s in spans if s.name in ("engine.decode", "engine.spec")]
        rows = [s.args["rows"] for s in decode_spans]
        # Queue wait: due time to the start of the step that first leased
        # the request's cache, per round.
        waits, ttfts = [], []
        for p in paced:
            leased = {}
            for s in self.tracer.within([p.phase]):
                if s.name == "pool.lease":
                    step = s
                    while "step" not in step.args:
                        step = self.tracer.spans[step.parent]
                    leased.setdefault(s.request, p.step_start[step.args["step"]])
            waits += [leased[rid] - due for rid, due in p.due.items()]
            ttfts += [p.ttft_ms(rid) / 1e3 for rid in p.due]
        drafted = count("serve/spec/draft_tokens")
        generated = count("serve/tokens_generated")
        reused = count("serve/pool/prefix_tokens_reused")
        occupancy = [row["occupancy"] for reg in registries
                     for row in reg.rows("serve/steps")]
        out = _zero_adaptive_layers()
        out.update({
            "bench.span_coverage_frac": sum(p.child_s for p in phases) / wall,
            "bench.timed_s": wall,
            "engine.prefill_frac": frac("engine.prefill"),
            "engine.decode_frac": frac("engine.decode"),
            "engine.spec_frac": frac("engine.spec"),
            "engine.busy_frac": sum(frac(n) for n in
                                    ("engine.prefill", "engine.decode", "engine.spec")),
            "engine.prefill_tokens_mean": float(np.mean(prefills)),
            "engine.decode_rows_mean": float(np.mean(rows)) if rows else 0.0,
            "engine.spec_accept_frac":
                count("serve/spec/accepted_tokens") / drafted if drafted else 0.0,
            "engine.early_exit_frac":
                count("serve/early_exit_tokens") / generated if generated else 0.0,
            "pool.lease_frac": frac("pool.lease"),
            "pool.commit_frac": frac("pool.commit"),
            "pool.release_frac": frac("pool.release"),
            "pool.evicted_tokens": count("serve/pool/evicted_tokens"),
            "pool.prefix_hit_frac": reused / (reused + sum(prefills)),
            "pool.occupancy_mean": float(np.mean(occupancy)),
            "sched.self_frac": frac("sched.step"),
            "sched.queue_wait_frac": sum(waits) / sum(ttfts),
            "sched.preemptions": sum(b.registry.counter("serve/preemptions").value
                                     for b in bursts + paced),
            "sched.steps": sum(len(p.step_end) for p in paced),
            "nn.fold_miss_frac": _fold_miss_frac(counters),
        })
        out.update(_tensor_layers(registries, decode_spans))
        return out


class Chat(Serving):
    """Dense model, plain head: unshared prompts, decode-bound."""

    name = "chat"
    RATE = 9.0
    BURST_ROUND_S = 0.45
    PACED_BUSY_S = 0.45
    TTFT_SLO_MS = 17.0
    TPOT_SLO_MS = 4.5

    def make_requests(self, fx, shape, tokens, n, prefix):
        prompts = _spans(fx.streams, tokens, range(len(fx.streams)),
                         stratified_ints(shape, n, 8, 64))
        return _requests(prefix, prompts, shape, tokens, new_tokens=(8, 40),
                         sampled_share=0.25)


class PrefixShare(Serving):
    """Four shared 160-token system prompts, prefix sharing, self-
    speculative decode from the fixture's draft head, two priority tiers
    under a KV budget tight enough to evict and preempt."""

    name = "prefix-share"
    RATE = 5.0
    BURST_ROUND_S = 1.05
    PACED_BUSY_S = 0.52
    TTFT_SLO_MS = 70.0
    TPOT_SLO_MS = 5.0
    BUDGET_TOKENS = 400
    SYSTEM_PROMPTS, SYSTEM_LEN = 4, 160
    MAX_SUFFIX, MAX_NEW = 24, 24
    share_prefixes = True

    def prepare(self, fx, phases):
        return fx.model, {"draft_heads": fx.draft_heads, "draft_k": 4}, None

    def budget(self, requests):
        return self.BUDGET_TOKENS

    def eval_ppl(self, state):
        """Perplexity of the draft head the speculation drafts from."""
        fx = state["fx"]
        point = fixture.RECIPE["draft"]["exit"]
        return _ppl(lambda ids: fx.draft_heads.all_logits(fx.model, ids)[point],
                    _fixed_windows(fx.streams, 3, 64, DENSE_EVAL_STREAMS))

    def warmup_bursts(self, fx):
        """Bursts of 4, 3, 2 and 1 requests with the longest prompts and
        outputs.  Speculation captures a graph per batch size and cache
        length bucket, and which ones a run meets depends on what its
        requests say; the KV budget admits at most 4 at a time.  Each of
        these bursts runs its batch size through both buckets the prompts
        reach, so every run starts with the same graphs (without it, peak
        memory moved 8-11% from seed to seed)."""
        rng = np.random.default_rng(WARMUP_SEED + 1)
        system = _spans(fx.streams, rng, range(self.SYSTEM_PROMPTS), [self.SYSTEM_LEN])[0]
        bursts = []
        for n in (4, 3, 2, 1):
            suffixes = _spans(fx.streams, rng, range(self.SYSTEM_PROMPTS, len(fx.streams)),
                              [self.MAX_SUFFIX] * n)
            bursts.append([Request(f"warm.{n}-{i}", prompt=np.concatenate([system, s]),
                                   max_new_tokens=self.MAX_NEW)
                           for i, s in enumerate(suffixes)])
        return bursts

    def make_requests(self, fx, shape, tokens, n, prefix):
        systems = _spans(fx.streams, tokens, range(self.SYSTEM_PROMPTS),
                         [self.SYSTEM_LEN] * self.SYSTEM_PROMPTS)
        which = shape.permutation(np.arange(n) % self.SYSTEM_PROMPTS)
        suffixes = _spans(fx.streams, tokens, range(self.SYSTEM_PROMPTS, len(fx.streams)),
                          stratified_ints(shape, n, 8, self.MAX_SUFFIX))
        prompts = [np.concatenate([systems[w], s]) for w, s in zip(which, suffixes)]
        tiers = np.where(stratified_flags(shape, n, 0.2), 0, 1)
        return _requests(prefix, prompts, shape, tokens, new_tokens=(8, self.MAX_NEW),
                         sampled_share=0.15, priorities=tiers)


class VoteExit(Serving):
    """The paper's inference path: compress, adapt, calibrate voting,
    then serve voted logits with confidence early exit."""

    name = "vote-exit"
    RATE = 10.0
    BURST_ROUND_S = 0.41
    PACED_BUSY_S = 0.42
    TTFT_SLO_MS = 21.0
    TPOT_SLO_MS = 6.0
    ADAPT_STEPS = 60
    CONFIDENCE = 0.6

    def prepare(self, fx, phases):
        edge = _compress(fx, phases)
        with phases("adapt"):
            fx.model.train()
            edge.adapt(_batches(_fixed_windows(fx.target, 2, self.ADAPT_STEPS * BATCH,
                                               TRAIN_STREAMS)))
            fx.model.eval()
        with phases("calibrate"):
            voting = _fixed_windows(fx.target, 4, 32, CALIB_STREAMS)
            edge.calibrate_voting(voting[:, :-1], voting[:, 1:])
        kwargs = {"voting": edge.voter, "confidence_threshold": self.CONFIDENCE}
        return fx.model, kwargs, edge

    def reserve_kwargs(self, state):
        return state["kwargs"]

    def policy(self, state):
        return state["extra"].policy

    def eval_ppl(self, state):
        fx = state["fx"]
        return _ppl(state["extra"].logits, _fixed_windows(fx.target, 3, 64, EVAL_STREAMS))

    def make_requests(self, fx, shape, tokens, n, prefix):
        prompts = _spans(fx.target, tokens, list(CALIB_STREAMS) + list(EVAL_STREAMS),
                         stratified_ints(shape, n, 8, 48))
        return _requests(prefix, prompts, shape, tokens, new_tokens=(8, 24),
                         sampled_share=0.25)


WORKLOADS = {cls.name: cls for cls in (Adapt, Chat, PrefixShare, VoteExit)}


# ----------------------------------------------------------------------
# layer metrics shared by both kinds of workload
# ----------------------------------------------------------------------


def _fold_miss_frac(counters) -> float:
    hits = counters.get("nn/fold/hits", 0)
    misses = counters.get("nn/fold/misses", 0)
    return misses / (hits + misses) if hits + misses else 0.0


def _overhead(untraced: List[float], traced: List[float]) -> float:
    """Median over adjacent (untraced, traced) round pairs of the
    throughput ratio, minus one: pairs share the host's state, rounds
    seconds apart do not."""
    return median([u / t for u, t in zip(untraced, traced)]) - 1


def _rounds(count: float) -> int:
    """``count`` rounded to a multiple of ``SLICES`` (at least one)."""
    return SLICES * max(1, round(count / SLICES))


def _interleave(bursts: int, paced: int) -> List[Tuple[str, int]]:
    """``bursts`` "burst" and ``paced`` "paced" rounds, each kind spread
    evenly over the sequence, with each round's index within its kind."""
    slots = [((i + 0.5) / bursts, "burst", i) for i in range(bursts)]
    slots += [((i + 0.5) / paced, "paced", i) for i in range(paced)]
    return [(kind, i) for _, kind, i in sorted(slots)]


def _sum_counters(registries) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for reg in registries:
        for name, value in reg.snapshot()["counters"].items():
            total[name] = total.get(name, 0) + value
    return total


def _kernel_info(samples: List[float]) -> Dict[str, float]:
    """The host-speed kernel's times over a measurement, in ms."""
    return {"kernel_ms_p50": median(samples) * 1e3,
            "kernel_ms_mean": float(np.mean(samples)) * 1e3,
            "kernel_samples": len(samples)}


def _tails(name: str, values: List[float]) -> Dict[str, float]:
    """Median and, when the sample supports it, p90 of ``values``."""
    out = {f"{name}_p50": median(values), f"{name}_n": len(values)}
    if len(values) >= MIN_TAIL_SAMPLES:
        out[f"{name}_p90"] = percentile(values, 90)
    return out


def _tensor_layers(registries, operations: List[Span]) -> Dict[str, float]:
    """``operations``: the train-step or decode spans of the phases."""
    counters = _sum_counters(registries)
    replayed = [s.args["replayed"] for s in operations]
    return {
        "tensor.graph_replay_frac": float(np.mean(replayed)) if replayed else 0.0,
        "tensor.graph_captures": counters.get("tensor/graph/captures", 0),
        "tensor.graph_invalidations": counters.get("tensor/graph/invalidations", 0),
        "tensor.arena_reserved_kb": get_arena().bytes_reserved / 1024,
    }


def _zero_adaptive_layers() -> Dict[str, float]:
    """Adaptation layers a serving workload leaves idle."""
    out = {"adaptive.fwd_bwd_frac": 0.0, "adaptive.optimizer_frac": 0.0,
           "adaptive.steps": 0, "adaptive.peak_tape_kb": 0.0}
    out.update({f"adaptive.step_frac.exit{p}": 0.0 for p in EXIT_POINTS})
    return out


def _zero_serving_layers() -> Dict[str, float]:
    """Serving layers the adaptation workload leaves idle."""
    names = [
        "engine.prefill_frac", "engine.decode_frac", "engine.spec_frac",
        "engine.busy_frac", "engine.prefill_tokens_mean",
        "engine.decode_rows_mean", "engine.spec_accept_frac",
        "engine.early_exit_frac", "pool.lease_frac", "pool.commit_frac",
        "pool.release_frac", "pool.evicted_tokens", "pool.prefix_hit_frac",
        "pool.occupancy_mean", "sched.self_frac", "sched.queue_wait_frac",
        "sched.preemptions", "sched.steps",
    ]
    return {name: 0.0 for name in names}


def setup_layers(import_s: float, reps: List[Phases]) -> Dict[str, float]:
    totals = sum(p.total for p in reps)

    def seconds(name):
        return median([p.seconds.get(name, 0.0) for p in reps])

    def share(name):
        return sum(p.seconds.get(name, 0.0) for p in reps) / totals

    return {
        "setup.import_s": import_s,
        "setup.load_s": seconds("load"),
        "setup.warmup_s": seconds("warmup"),
        "setup.compress_frac": share("compress"),
        "setup.adapt_frac": share("adapt"),
        "setup.calibrate_frac": share("calibrate"),
    }
