"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps each public function of a layer at every module
attribute it is looked up by (the defining module, the package re-export, and
every caller that imported it by name), plus the compressor and hash
libraries as ``tracecomplexity.complexity`` sees them. A name that is no
longer there raises, so a refactor cannot silently drop a layer from the
trace. ``uninstall`` puts every original back.

A span records its name, start, end, parent span and operation id. Spans stay
in memory; ``write`` saves them when the run ends and ``layer_metrics`` turns
one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
import types
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: (module under tracecomplexity, attribute path, span name). The span name
#: is the metric prefix.
LAYERS = (
    ("complexity", "compressed_size", "complexity.compressed_size"),
    ("complexity", "trace_complexity", "complexity.trace_complexity"),
    ("transforms", "temporal_shuffle", "transforms.temporal_shuffle"),
    ("transforms", "resample_uniform", "transforms.resample_uniform"),
    ("trace", "load_trace", "trace.load_trace"),
    ("trace", "encode_canonical", "trace.encode_canonical"),
    ("trace", "write_trace", "trace.write_trace"),
    ("generator", "spec_from_target", "generator.spec_from_target"),
    ("generator", "generate", "generator.generate"),
    ("generator", "spec_to_json", "generator.spec_to_json"),
    ("generator", "spec_from_json", "generator.spec_from_json"),
    ("generator", "spec_from_trace", "generator.spec_from_trace"),
    ("entropy", "empirical_matrix", "entropy.empirical_matrix"),
    ("entropy", "solve_zipf_exponent", "entropy.solve_zipf_exponent"),
    ("entropy", "solve_repeat_probability", "entropy.solve_repeat_probability"),
    ("entropy", "TrafficMatrix.write_dense_csv", "entropy.write_dense_csv"),
    ("reports", "AnalysisReport.to_json", "reports.to_json"),
    ("reports", "load_report", "reports.load_report"),
    ("svgplots", "complexity_map_svg", "svgplots.complexity_map_svg"),
    ("svgplots", "matrix_heatmap_svg", "svgplots.matrix_heatmap_svg"),
    ("cli", "main", "cli.main"),
)

BUFFER_KINDS = ("original", "shuffled", "uniform")
BACKENDS = ("lzma", "deflate")

#: Layers reported by total time only, as ``<name>.s``.
_TIME_ONLY = ("trace.write_trace", "generator.spec_from_target", "generator.spec_to_json",
              "generator.spec_from_json", "generator.spec_from_trace",
              "entropy.empirical_matrix", "entropy.write_dense_csv",
              "entropy.solve_zipf_exponent", "entropy.solve_repeat_probability",
              "reports.to_json", "reports.load_report", "svgplots.complexity_map_svg",
              "svgplots.matrix_heatmap_svg", "complexity.sha256")


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` emits, plus the overhead."""
    names = [f"complexity.compressed_size.{kind}.{q}" for kind in BUFFER_KINDS
             for q in ("s", "calls", "bytes_in", "bytes_out")]
    names += [f"complexity.backend.{b}.s" for b in BACKENDS]
    names += ["complexity.compressed_size.hits", "complexity.compressed_size.hit_frac"]
    names += [f"complexity.trace_complexity.{q}" for q in ("s", "self_s", "calls")]
    names += [f"transforms.{f}.{q}" for f in ("temporal_shuffle", "resample_uniform")
              for q in ("s", "calls")]
    names += ["trace.load_trace.s", "trace.load_trace.entries",
              "trace.encode_canonical.s", "trace.encode_canonical.bytes",
              "generator.generate.s", "generator.generate.entries"]
    names += [f"{layer}.s" for layer in _TIME_ONLY]
    names += ["cli.main.s", "cli.main.self_s", "cli.main.calls", "tracing.overhead_frac"]
    return names


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "B" if name.endswith((".bytes", ".bytes_in", ".bytes_out")) else "count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []
        # Buffer-kind attribution: traces made by a transform, keyed by id()
        # with a weak reference guarding against id reuse, and the last
        # encoded buffer.
        self._trace_kind: dict[int, tuple[weakref.ref, str]] = {}
        self._last_encoded: tuple[int, int, str] = (0, -1, "original")

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return span, result

    @contextmanager
    def operation(self, name: str):
        """One benchmark operation: a root span with a new operation id."""
        self._op += 1
        span = Span(f"op.{name}", time.perf_counter(), 0.0, -1, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _kind_of_trace(self, trace) -> str:
        entry = self._trace_kind.get(id(trace))
        return entry[1] if entry and entry[0]() is trace else "original"

    def _remember_trace(self, trace, kind: str) -> None:
        key = id(trace)
        self._trace_kind[key] = (weakref.ref(trace, lambda _r: self._trace_kind.pop(key, None)),
                                 kind)

    def _wrapper(self, name: str, fn):
        tracer = self

        if name in ("transforms.temporal_shuffle", "transforms.resample_uniform"):
            kind = "shuffled" if name.endswith("shuffle") else "uniform"

            def wrapped(*args, **kwargs):
                _, result = tracer._call(name, fn, args, kwargs)
                tracer._remember_trace(result, kind)
                return result
        elif name == "trace.encode_canonical":
            def wrapped(*args, **kwargs):
                kind = tracer._kind_of_trace(args[0] if args else kwargs["trace"])
                span, result = tracer._call(name, fn, args, kwargs)
                span.attrs["bytes"] = len(result)
                tracer._last_encoded = (id(result), len(result), kind)
                return result
        elif name == "complexity.compressed_size":
            def wrapped(*args, **kwargs):
                data = args[0] if args else kwargs["data"]
                key, size, kind = tracer._last_encoded
                span, result = tracer._call(name, fn, args, kwargs)
                span.attrs.update(
                    kind=kind if (id(data), len(data)) == (key, size) else "original",
                    bytes_in=len(data), bytes_out=result)
                return result
        elif name in ("trace.load_trace", "generator.generate"):
            def wrapped(*args, **kwargs):
                span, result = tracer._call(name, fn, args, kwargs)
                span.attrs["entries"] = len(result)
                return result
        else:
            def wrapped(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)[1]
        return wrapped

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_modules=()) -> None:
        """Wrap every layer; ``extra_modules`` are callers outside the package."""
        callers = [m for n, m in sorted(sys.modules.items())
                   if n == "tracecomplexity" or n.startswith("tracecomplexity.")]
        callers += list(extra_modules)
        for module_name, path, span_name in LAYERS:
            owner = sys.modules.get(f"tracecomplexity.{module_name}")
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise RuntimeError(f"traced name tracecomplexity.{module_name}.{path} "
                                   f"is missing")
            wrapped = self._wrapper(span_name, original)
            if cls_name:
                self._set(owner, attr, wrapped)
                continue
            for caller in callers:
                for key, value in list(vars(caller).items()):
                    if value is original:
                        self._set(caller, key, wrapped)
        self._install_libraries(sys.modules["tracecomplexity.complexity"])

    def _install_libraries(self, complexity) -> None:
        """Time the compressor and hash libraries as complexity.py calls them."""
        for lib in ("lzma", "zlib", "hashlib"):
            if not isinstance(getattr(complexity, lib, None), types.ModuleType):
                raise RuntimeError(f"tracecomplexity.complexity no longer imports {lib}")
        lzma, zlib, hashlib = complexity.lzma, complexity.zlib, complexity.hashlib
        tracer = self

        def timed(name, fn):
            return lambda *args, **kwargs: tracer._call(name, fn, args, kwargs)[1]

        class _Deflate:
            def __init__(self, *args, **kwargs):
                inner = zlib.compressobj(*args, **kwargs)
                self.compress = timed("complexity.backend.deflate", inner.compress)
                self.flush = timed("complexity.backend.deflate", inner.flush)

        for lib, attr, fn in ((lzma, "compress", timed("complexity.backend.lzma", lzma.compress)),
                              (zlib, "compressobj", _Deflate),
                              (hashlib, "sha256", timed("complexity.sha256", hashlib.sha256))):
            proxy = types.SimpleNamespace(**vars(lib))
            setattr(proxy, attr, fn)
            self._set(complexity, lib.__name__, proxy)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "op"],
                                    "spans": rows}), encoding="utf-8")

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in ``[first, last)``."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        backend_children = [0] * len(spans)
        for s in spans:
            if s.parent >= first:
                child_time[s.parent - first] += s.end - s.start
                if s.name.startswith("complexity.backend."):
                    backend_children[s.parent - first] += 1

        m = {name: 0.0 for name in metric_names()}
        for i, s in enumerate(spans):
            dur = s.end - s.start
            if s.name == "complexity.compressed_size":
                prefix = f"complexity.compressed_size.{s.attrs['kind']}"
                m[f"{prefix}.s"] += dur
                m[f"{prefix}.calls"] += 1
                m[f"{prefix}.bytes_in"] += s.attrs["bytes_in"]
                m[f"{prefix}.bytes_out"] += s.attrs["bytes_out"]
                if backend_children[i] == 0:
                    m["complexity.compressed_size.hits"] += 1
                continue
            if f"{s.name}.s" in m:
                m[f"{s.name}.s"] += dur
            if f"{s.name}.calls" in m:
                m[f"{s.name}.calls"] += 1
            if f"{s.name}.self_s" in m:
                m[f"{s.name}.self_s"] += dur - child_time[i]
            for attr in ("entries", "bytes"):
                if attr in s.attrs:
                    m[f"{s.name}.{attr}"] += s.attrs[attr]
        calls = sum(m[f"complexity.compressed_size.{k}.calls"] for k in BUFFER_KINDS)
        if calls:
            m["complexity.compressed_size.hit_frac"] = m["complexity.compressed_size.hits"] / calls
        return m
