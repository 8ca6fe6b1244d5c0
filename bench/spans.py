"""In-memory spans around the benchmark's calls into mstd.

A span records layer, name, argument tag, start, end, parent span and
run id. Spans stay in a list until the run ends; write() dumps them in
one go, so tracing does no I/O while the workload runs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_OFF = nullcontext()


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, layer: str, name: str, arg: str = ""):
        """Context manager around one call; a shared no-op when disabled.

        It yields the span's record (None when disabled), so the caller
        can attach fields such as the host's slowness once the call ends.
        """
        return self._span(layer, name, arg) if self.enabled else _OFF

    @contextmanager
    def _span(self, layer, name, arg):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "layer": layer, "name": name, "arg": arg,
               "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def durations(self, layer: str, name: str, arg: str | None = None,
                  within: set[int] | None = None) -> list[float]:
        """Durations of the matching spans at nominal host speed.

        A span's duration is divided by the slowness recorded on it, if
        any; `within` keeps only spans under those root spans.
        """
        return [(s["end"] - s["start"]) / s.get("slowness", 1.0) for s in self.spans
                if s["layer"] == layer and s["name"] == name
                and (arg is None or s["arg"] == arg)
                and (within is None or self.root_of(s) in within)]

    def root_of(self, span: dict) -> int:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span["id"]

    def self_times(self, roots: set[int]) -> dict[str, float]:
        """Seconds per layer under the given root spans, minus child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if self.root_of(s) in roots:
                own = s["end"] - s["start"] - child[s["id"]]
                out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def span_cost(self, reps: int = 20000) -> float:
        """Seconds one empty span adds, measured on a scratch tracer."""
        probe = Tracer(self.run_id, enabled=True)
        t0 = perf_counter()
        for _ in range(reps):
            with probe.span("bench", "empty"):
                pass
        return (perf_counter() - t0) / reps

    def write(self, path, meta: dict, extra: dict) -> None:
        doc = {"meta": meta, **extra, "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
