"""Observability: request tracing, metrics, profiling, and exporters.

The repo's fourth cross-cutting seam (after backend, transport, and
store).  Four pieces:

* :mod:`repro.obs.trace` — spans emitted from intervals the code
  already measured (one idiom: :meth:`Tracer.emit`); a worker's spans
  are emitted by the server from the intervals its reply reports;
  ~zero cost when disabled;
* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms
  with JSON-safe snapshots that :class:`repro.serving.ServingReport`
  embeds;
* :mod:`repro.obs.profile` — :class:`ProfilingBackend` timing the hot
  kernels of any wrapped ``ArrayBackend``;
* :mod:`repro.obs.export` — JSONL span logs and Chrome
  trace-event/Perfetto JSON (``repro serve --trace trace.json``).

Typical use::

    from repro import obs

    obs.enable_tracing()
    ...serve traffic...
    obs.write_chrome_trace(obs.get_tracer().spans(), "trace.json")
    print(obs.get_registry().render_text())
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".trace": ("SpanRecord", "TRACE_SCHEMA_VERSION", "Tracer",
               "disable_tracing", "enable_tracing", "get_tracer",
               "new_span_id", "tracing_enabled"),
    ".metrics": ("Counter", "DEFAULT_SECONDS_BOUNDS", "Gauge", "Histogram",
                 "MetricsRegistry", "get_registry"),
    ".profile": ("PROFILED_KERNELS", "ProfilingBackend"),
    ".export": ("chrome_trace", "jsonl_lines", "write_chrome_trace",
                "write_jsonl"),
})
