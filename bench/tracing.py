"""Spans and counters recorded around the public functions of each excount layer.

The benchmark installs these wrappers itself; nothing in ``src/`` knows about
them.  Spans are kept in memory and turned into per-layer metrics after each
pass.  A hooked name that no longer exists (a later refactor removed or
renamed it) is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass

# Commands whose (temperature, channel) jobs the CLI fans out over threads.
FANOUT_COMMANDS = ("theta-scan", "rate-function", "crossover-map")

# The writers of excount.output; every call is one "output" span.
_OUTPUT_WRITERS = ("scan_csv", "rate_function_csv", "scan_svg", "dump_json")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float
    cpu: float  # CPU time of the thread that ran the span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; safe to call from the CLI's worker threads.

    A span opened on a thread with no open span of its own gets the current
    root (the running CLI command) as parent, so jobs fanned out to worker
    threads still hang under their command.
    """

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root: int | None = None
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        token = (next(self._ids), name, parent, time.perf_counter(), time.thread_time())
        stack.append(token)
        return token

    def exit(self, token) -> Span:
        end, cpu_end = time.perf_counter(), time.thread_time()
        self._stack().pop()
        sid, name, parent, start, cpu_start = token
        span = Span(sid, name, parent, start, end, cpu_end - cpu_start)
        self.spans.append(span)
        return span

    def in_layer(self, prefix: str) -> bool:
        """True when this thread is inside an open span named ``prefix...``."""
        return any(tok[1].startswith(prefix) for tok in self._stack())

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        self.spans = []
        self.counts = {}


# --- hooks --------------------------------------------------------------------


def _len_or_zero(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _scan_result(tracer, args, kwargs, result):
    tracer.add("lds.points", _len_or_zero(result))


def _crossover_args(tracer, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs.get("s_grid", ())
    tracer.add("lds.points", _len_or_zero(grid))


def _simulate_result(tracer, args, kwargs, result):
    hist = getattr(result, "histogram", None) or {}
    tracer.add("trajectories.trajectories", getattr(result, "n_trajectories", 0))
    tracer.add("trajectories.counted_jumps", sum(k * f for k, f in hist.items()))


def _output_result(tracer, args, kwargs, result):
    if isinstance(result, str):
        tracer.add("output.bytes", len(result.encode()))


@dataclass(frozen=True)
class Hook:
    """``kind`` is "span" (timed, nested) or "count" (call count only)."""

    metric: str
    module: str
    attr: str  # "func" or "Class.method"
    kind: str = "span"
    on_result: object = None
    lds_only: bool = False  # count only calls made inside an lds span


HOOKS: tuple[Hook, ...] = (
    Hook("model.diagonalize", "excount.model", "diagonalize"),
    Hook("bath.gamma", "excount.bath", "gamma", "count"),
    Hook("generator.enumerate_channels", "excount.generator", "enumerate_channels"),
    Hook("generator.resolve_counted", "excount.generator", "resolve_counted"),
    Hook("generator.build", "excount.generator", "TiltedGenerator.__init__"),
    Hook("generator.population_block", "excount.generator",
         "TiltedGenerator.population_block", "count"),
    Hook("generator.assemble", "excount.generator", "TiltedGenerator.assemble", "count"),
    Hook("lds.theta", "excount.lds", "theta"),
    Hook("lds.theta_derivatives", "excount.lds", "theta_derivatives"),
    Hook("lds.mandel", "excount.lds", "mandel"),
    Hook("lds.scan", "excount.lds", "scan", on_result=_scan_result),
    Hook("lds.find_crossover", "excount.lds", "find_crossover", on_result=_crossover_args),
    Hook("lds.rate_function", "excount.lds", "rate_function"),
    Hook("lds.dense_eig", "scipy.linalg", "eig", "count", lds_only=True),
    Hook("lds.dense_eig", "numpy.linalg", "eigvals", "count", lds_only=True),
    Hook("trajectories.simulate", "excount.trajectories", "simulate",
         on_result=_simulate_result),
) + tuple(
    Hook("output", "excount.output", name, on_result=_output_result)
    for name in _OUTPUT_WRITERS
)


def _make_wrapper(fn, hook: Hook, tracer: Tracer):
    if hook.kind == "count":

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            if not hook.lds_only or tracer.in_layer("lds."):
                tracer.add(hook.metric + ".calls")
            return fn(*args, **kwargs)

        return counter

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        token = tracer.enter(hook.metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(token)
        if hook.on_result is not None:
            hook.on_result(tracer, args, kwargs, result)
        return result

    return spanned


class Installation:
    """Wrappers in place; ``remove`` restores every patched attribute."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        for hook in hooks:
            try:
                self._install(hook, tracer)
            except (ImportError, AttributeError):
                self.absent.append(f"{hook.module}.{hook.attr}")

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _install(self, hook: Hook, tracer: Tracer) -> None:
        module = importlib.import_module(hook.module)
        owner_name, _, name = hook.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)
        wrapper = _make_wrapper(original, hook, tracer)
        self._patch(owner, name, wrapper)
        if owner_name:
            return  # a method: every reference goes through the class
        # A function imported by name elsewhere in the package is bound in
        # that module too (``from .generator import resolve_counted``).
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or not mod_name.startswith("excount"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []


# --- span arithmetic ------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _children(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append(sp)
    return kids


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = union_length(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    return span.duration - covered


def fanout_parallelism(spans) -> float:
    """CPU time of the fanned-out commands' child spans per second of their wall time.

    Busy (thread CPU) time is used rather than span wall time: jobs that
    take turns on the interpreter lock overlap in wall time while running
    one at a time.  About 1.0 means serial execution, ``workers`` means
    every worker thread stayed busy.
    """
    kids = _children(spans)
    commands = [sp for sp in spans if sp.name in {f"cli.{c}" for c in FANOUT_COMMANDS}]
    wall = sum(sp.duration for sp in commands)
    busy = sum(c.cpu for sp in commands for c in kids.get(sp.sid, ()))
    return busy / wall if wall > 0 else 0.0


def layer_metrics(spans, counts, names) -> dict[str, float]:
    """Per-layer metrics of one pass, for every name in ``names``.

    ``X.s`` is the wall time during which at least one X call was running
    (the union of its spans over threads), so it never exceeds the pass;
    ``X.calls`` counts X spans, or calls of a counted-only hook.  A name
    with no span or count reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    kids = _children(spans)

    def busy(stem: str) -> float:
        return union_length((sp.start, sp.end) for sp in by_name.get(stem, ()))

    def self_sum(selected) -> float:
        return sum(self_time(sp, kids.get(sp.sid, ())) for sp in selected)

    derived = {
        "lds.scan.self_s": lambda: self_sum(by_name.get("lds.scan", ())),
        "cli.self_s": lambda: self_sum(sp for sp in spans if sp.name.startswith("cli.")),
        "cli.fanout.parallelism": lambda: fanout_parallelism(spans),
        "lds.eig_per_point": lambda: _ratio(
            counts.get("lds.dense_eig.calls", 0), counts.get("lds.points", 0)
        ),
        "trajectories.jumps_per_s": lambda: _ratio(
            counts.get("trajectories.counted_jumps", 0), busy("trajectories.simulate")
        ),
    }
    out = {}
    for name in names:
        stem, _, field = name.rpartition(".")
        if name in derived:
            out[name] = float(derived[name]())
        elif name in counts:
            out[name] = float(counts[name])
        elif field == "calls":
            out[name] = float(len(by_name.get(stem, ())))
        elif field == "s":
            out[name] = busy(stem)
        else:
            out[name] = 0.0
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
