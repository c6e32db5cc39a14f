"""Shared pieces of the benchmark: statistics, host fingerprint, tracer,
seeded input pools and the runtime wrappers of the traced runs.

The tracer times the system's layers from the outside.  It replaces a
public function or method with a wrapper that records a span (name,
start, end, parent span, request id) and restores the original when the
traced part of a run ends.  Spans stay in memory until the run writes
them out as Chrome trace-event JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


# ----------------------------------------------------------------------
# Statistics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def geomean(values) -> float:
    arr = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(arr).mean()))


def median(values) -> float:
    return percentile(values, 50)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seed_rng(seed: int, *labels: str) -> np.random.Generator:
    """A generator for one named stream of a workload seed, so adding a
    stream never shifts the draws of another."""
    digest = hashlib.sha256(":".join((str(seed),) + labels).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ----------------------------------------------------------------------
# Host fingerprint


def _command_output(cmd: list[str]) -> str:
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=20, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    text = (out.stdout or out.stderr).strip()
    return text.splitlines()[0] if text else "unavailable"


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources.

    Unlike the git sha it sees uncommitted edits, and it exists in a
    checkout that is not a repository."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _source_id() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = _command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        if out != "unavailable":
            sha = out
    return {"git_sha": sha, "source_sha256": source_digest()}


def _blas_vendor() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy < 1.26 has no mode="dicts"
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint(workload: str, seed: int) -> dict:
    cc = os.environ.get("REPRO_CC") or shutil.which("cc") or "cc"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_vendor": _blas_vendor(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cc": _command_output([cc, "--version"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        **_source_id(),
    }


# ----------------------------------------------------------------------
# Tracing


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: object
    thread: int


class Tracer:
    """In-memory span recorder over wrapped public callables.

    Wrappers record only while ``enabled`` is set, so a traced run can
    alternate traced and untraced rounds over the same objects and take
    the tracing overhead from rounds that share the host's conditions.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- request identity (thread-local) --------------------------------
    def set_request(self, request) -> None:
        self._local.request = request

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(
                        span_id, name, start, end, parent,
                        getattr(self._local, "request", None),
                        threading.get_ident(),
                    )
                )

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------
    def since(self, mark: int) -> "Tracer":
        """A read-only view of the spans recorded after ``mark``
        (a length of :attr:`spans` taken earlier)."""
        view = Tracer()
        view.spans = self.spans[mark:]
        return view

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        """Total self time of ``name``: each span's duration minus the
        part of it that its child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        return sum(
            (s.end - s.start) - child_time.get(s.id, 0.0)
            for s in self.spans
            if s.name == name
        )

    def write(self, path: Path, metadata: dict) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": os.getpid(),
                "tid": s.thread,
                "args": {"id": s.id, "parent": s.parent, "request": s.request},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "metadata": metadata}, default=str)
        )


# ----------------------------------------------------------------------
# Shared workload pieces


def input_pool(graphs: dict, seed: int, label: str, count: int) -> dict:
    """``count`` seeded input sets per graph, one RNG stream per graph."""
    from repro.ir import make_inputs

    pool = {}
    for name, graph in graphs.items():
        rng = seed_rng(seed, label, "inputs", name)
        pool[name] = [
            make_inputs(graph, seed=int(rng.integers(2**31))) for _ in range(count)
        ]
    return pool


def install_runtime_wrappers(tracer: Tracer, preemptible: bool = False) -> None:
    """Trace weight materialization, session runs and the dispatch core.

    ``preemptible`` also wraps ``EngineSession.run_preemptible``, the
    entry point the serving workers use."""
    import repro.runtime.core as core
    from repro.ir.graph import Graph
    from repro.runtime.session import EngineSession

    tracer.wrap(Graph, "materialize_params", "ir.materialize")
    tracer.wrap(EngineSession, "run", "session.run")
    if preemptible:
        tracer.wrap(EngineSession, "run_preemptible", "session.run")
    tracer.wrap(core, "resolve_feeds", "dispatch.resolve")
    tracer.wrap(core, "execute_kernels", "dispatch.kernels")


def finite(value: float) -> float:
    """JSON has no inf/nan; a metric that cannot be computed fails loudly."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return value


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
