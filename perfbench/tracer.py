"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of semshield's layer modules
from outside the package: every module attribute that refers to a
wrapped function is rebound, because ``experiments`` and
``obfuscation`` import functions by name, and public methods are
replaced on their classes (``Keystream.bits`` and ``draw_uniform`` are
class attributes).  Nothing under ``src/`` changes; ``uninstall`` puts
every original back.

Each span records its name, start, end, parent span and the benchmark
sample it belongs to (the per-run id).  Spans stay in compact in-memory
arrays until the run ends, when ``stats`` folds them into per-function
and per-layer figures per pass over the workload's inputs and ``save``
writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("bits", "codec", "keying", "obfuscation", "ofdm", "experiments")
ROOT_SPAN = "bench.sample"

# Percentiles are reported only for functions called this often in one
# pass, a fixed amount of work, so that whether one appears does not
# depend on how many passes the machine finished.
P50_MIN_CALLS = 20
P99_MIN_CALLS = 1000


def _count_frame(counts, result):
    counts["obfuscation.frames"] += 1
    counts["obfuscation.units"] += len(result.units)
    counts["obfuscation.payload_bits"] += result.l_d
    counts["obfuscation.onair_bits"] += (
        sum(u.payload_bits.size for u in result.units) + result.tail_bits.size)


def _count_stream_bits(counts, result):
    counts["keying.Keystream.bits.bits"] += result.size


def _count_chacha_bytes(counts, result):
    counts["keying.chacha20_stream.bytes"] += len(result)


def _count_ofdm_symbols(counts, result):
    from semshield.ofdm import CP_LEN, N_FFT
    counts["ofdm.symbols"] += result.size // (N_FFT + CP_LEN)


# Counters read from what a layer returns, keyed by span name.
ON_RETURN = {
    "obfuscation.obfuscate": _count_frame,
    "keying.Keystream.bits": _count_stream_bits,
    "keying.chacha20_stream": _count_chacha_bytes,
    "ofdm.ofdm_modulate": _count_ofdm_symbols,
}
COUNTERS = (
    "obfuscation.frames", "obfuscation.units", "obfuscation.payload_bits",
    "obfuscation.onair_bits", "keying.Keystream.bits.bits",
    "keying.chacha20_stream.bytes", "keying.simulate_plk.insufficient", "ofdm.symbols",
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.sample = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.current_sample = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def wrap(self, span_name: str, fn):
        nid = self._name_id(span_name)
        on_return = ON_RETURN.get(span_name)
        names, parents, samples = self.name, self.parent, self.sample
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter_ns
        if span_name == "keying.simulate_plk":
            # The silent all-zero-PLK fallback in experiments starts here.
            from semshield.keying import InsufficientEntropyError as counted_error
        else:
            counted_error = ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            samples.append(self.current_sample)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if isinstance(exc, counted_error):
                    counts["keying.simulate_plk.insufficient"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"semshield.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "semshield" and not mod_name.startswith("semshield."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(mod, attr, obj, wrapped[obj])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span_name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._replace(cls, attr, member, type(member)(self.wrap(span_name, member.__func__)))
            elif inspect.isfunction(member):
                self._replace(cls, attr, member, self.wrap(span_name, member))

    def _replace(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "sample": np.frombuffer(self.sample, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path, run_id: str) -> None:
        np.savez(path, names=np.array(self.names), run_id=np.array(run_id), **self.arrays())

    def _durations(self):
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        return a, dur, dur - child[:dur.size]

    def stats(self, passes: int, sample_wall_s: float) -> dict[str, float]:
        """Per-function calls/busy/self, per-layer self time and counters, per pass.

        Every count and time is divided by ``passes``, the number of traced
        passes over the workload's inputs, so it describes a fixed amount
        of work whatever the number of passes the run could fit in.  Self
        time is a span's duration minus the durations of its child spans;
        calls are synchronous, so children never overlap.
        ``sample_wall_s`` is the wall time of the traced samples as the
        caller measured it outside the spans: ``trace.accounted_ratio`` is
        the share of it that the layer and ``bench`` self times cover.
        """
        a, dur, self_t = self._durations()
        out: dict[str, float] = {}
        layer_self: Counter = Counter()
        for nid, span_name in enumerate(self.names):
            mask = a["name"] == nid
            self_s = float(self_t[mask].sum()) / 1e9
            out[f"{span_name}.calls"] = int(mask.sum()) / passes
            out[f"{span_name}.busy_s"] = float(dur[mask].sum()) / 1e9 / passes
            out[f"{span_name}.self_s"] = self_s / passes
            layer_self[span_name.split(".")[0]] += self_s
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = layer_self[layer] / passes

        c = self.counts
        out.update({name: n / passes for name, n in c.items()})
        out["obfuscation.units_per_frame"] = c["obfuscation.units"] / max(c["obfuscation.frames"], 1)
        out["obfuscation.onair_ratio"] = c["obfuscation.onair_bits"] / max(c["obfuscation.payload_bits"], 1)
        out["keying.stream_use_ratio"] = (
            c["keying.Keystream.bits.bits"] / max(8 * c["keying.chacha20_stream.bytes"], 1))

        roots = a["name"] == self._ids.get(ROOT_SPAN, -1)
        out["trace.wall_s"] = float(dur[roots].sum()) / 1e9 / passes
        out["trace.spans"] = dur.size / passes
        out["trace.accounted_ratio"] = sum(layer_self.values()) / sample_wall_s
        return out

    def percentiles(self, passes: int) -> dict[str, float]:
        """p50/p99 span duration of each function called often enough per pass."""
        a, dur, _ = self._durations()
        out = {}
        for nid, span_name in enumerate(self.names):
            d = dur[a["name"] == nid]
            if d.size / passes >= P50_MIN_CALLS:
                out[f"{span_name}.p50_us"] = float(np.median(d)) / 1e3
            if d.size / passes >= P99_MIN_CALLS:
                out[f"{span_name}.p99_us"] = float(np.percentile(d, 99)) / 1e3
        return out
