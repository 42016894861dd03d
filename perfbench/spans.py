"""In-memory span tracing of qgossip's public functions, from outside.

``Tracer.install()`` replaces each function listed in ``LAYERS`` by a
wrapper at every module binding callers use (``from .states import
twirl_matrix`` in ``qgossip.gossip`` is a binding of its own), and
``uninstall()`` puts the originals back. Each call records a span
``[job, name, parent, start, end, failed, bytes]``; spans of one job share the
job id and ``parent`` is the index of the enclosing span (-1 for the root).
Nothing is written while tracing; ``dump()`` writes all spans at the end.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

def _result_bytes(args, result) -> int:
    return int(result.nbytes)


def _file_bytes(args, result) -> int:
    return Path(args[0]).stat().st_size


# (span name, defining module, function, bindings to wrap or None for all,
#  byte counter or None). Bytes count the d x d result of each gossip step and
# the result files written; manifests are left out, as they hold a wall time.
LAYERS = [
    ("cli.job", "qgossip.cli", "main", (), None),  # the benchmark wraps main itself
    ("scenario.load_scenario", "qgossip.scenario", "load_scenario", None, None),
    ("scenario.write", "qgossip.scenario", "write_csv", None, _file_bytes),
    ("scenario.write", "qgossip.scenario", "write_json", None, _file_bytes),
    ("scenario.write", "qgossip.scenario", "write_manifest", None, None),
    ("gossip.evolve", "qgossip.gossip", "evolve", None, None),
    ("gossip.ensemble", "qgossip.gossip", "probability_one_convergence_experiment", None, None),
    ("gossip.step", "qgossip.states", "conjugate_by_basis_map", ("qgossip.gossip",),
     _result_bytes),
    ("rng.draw_index", "qgossip.rng", "draw_index", None, None),
    ("linalg.partial_trace", "qgossip.linalg", "partial_trace", None, None),
    ("consensus.ssc_gap", "qgossip.consensus", "ssc_gap", None, None),
    ("consensus.sym_projector", "qgossip.consensus", "sym_projector", None, None),
    ("consensus.smc_pairwise_gap", "qgossip.consensus", "smc_pairwise_gap", None, None),
    ("consensus.classify", "qgossip.consensus", "classify", None, None),
    ("states.twirl_matrix", "qgossip.states", "twirl_matrix", None, None),
    ("states.basis_index_map", "qgossip.states", "basis_index_map", None, None),
    ("states.random_density", "qgossip.states", "random_density", None, None),
    ("classical.run_classical", "qgossip.classical", "run_classical", None, None),
    ("gossip.synchronous_superoperator", "qgossip.gossip", "synchronous_superoperator",
     None, None),
    ("gossip.spectral_certificate", "qgossip.gossip", "spectral_certificate", None, None),
    ("gossip.fixed_point_space", "qgossip.gossip", "fixed_point_space", None, None),
    ("gossip.commutant_dimension", "qgossip.gossip", "commutant_dimension", None, None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in LAYERS))
STATS = ("calls", "s", "self_s", "errors")
BYTE_METRICS = {"gossip.step": "gossip.step.bytes_computed",
                "scenario.write": "scenario.write.bytes"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count_bytes=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [self.job, name, stack[-1] if stack else -1, clock(), 0.0, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if count_bytes is not None:
                    rec[6] = count_bytes(args, result)
                return result
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function at each of its module bindings."""
        modules = {k: v for k, v in sys.modules.items()
                   if k == "qgossip" or k.startswith("qgossip.")}
        for name, home, func, bindings, count_bytes in LAYERS:
            if bindings == ():
                continue
            original = getattr(modules[home], func)
            wrapper = self.wrap(name, original, count_bytes)
            targets = modules if bindings is None else {b: modules[b] for b in bindings}
            for mod in targets.values():
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)
                    self._patches.append((mod, func, original))

    def uninstall(self):
        for mod, func, original in reversed(self._patches):
            setattr(mod, func, original)
        self._patches.clear()

    def dump(self, path: Path):
        path.write_text(json.dumps({
            "columns": ["job", "name", "parent", "start", "end", "failed", "bytes"],
            "spans": self.spans}))


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[2] >= 0:
            children.setdefault(rec[2], []).append((rec[3], rec[4]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[3], rec[4]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_stats(spans) -> dict[str, float]:
    """``<layer>.<stat>`` totals over all spans, every listed layer included."""
    stats = {f"{n}.{s}": 0 if s in ("calls", "errors") else 0.0
             for n in SPAN_NAMES for s in STATS}
    stats.update({metric: 0 for metric in BYTE_METRICS.values()})
    for rec, own in zip(spans, self_times(spans)):
        name = rec[1]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.s"] += rec[4] - rec[3]
        stats[f"{name}.self_s"] += own
        stats[f"{name}.errors"] += int(rec[5])
        if name in BYTE_METRICS:
            stats[BYTE_METRICS[name]] += rec[6]
    return stats


def job_self_sums(spans) -> dict[int, float]:
    """Sum of self times per job id."""
    sums: dict[int, float] = {}
    for rec, own in zip(spans, self_times(spans)):
        sums[rec[0]] = sums.get(rec[0], 0.0) + own
    return sums
