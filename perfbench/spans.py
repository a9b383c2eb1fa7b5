"""Layer spans and call counters, wrapped around qrob from outside the package.

A `Tracer` rebinds each layer function at every name a caller looks it up by
(for example `qrob.pipeline.search_obstruction` and `qrob.cli.verify_document`)
to a wrapper that records a span: name, start, end and the index of the
enclosing span. Hot leaves (`multiply`, `wedge`, `kronecker_systems`) are
only counted, because timing them would cost more than the work they do.
Install the wrappers only in a process that is about to run one call and
then exit: they are never removed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Span name -> (module, attribute path) of the function that opens it.
TIMED = {
    "cli.main": [("qrob.cli", "main")],
    "dsl.parse": [("qrob.dsl", "parse_manifold"), ("qrob.dsl", "parse_omega")],
    "manifolds.build": [("qrob.manifolds", "build_with_classes")],
    "ring.validate": [("qrob.ring", "GradedRing.validate")],
    "ring.ideal": [("qrob.ring", "in_kunneth_ideal")],
    "ring.factorizations": [("qrob.ring", "factorizations")],
    "linalg.elim": [
        ("qrob.linalg", "rref"),
        ("qrob.linalg", "solve_many"),
        ("qrob.linalg", "pivot_rows_cols"),
        ("qrob.linalg", "invert"),
    ],
    "obstruct.search": [("qrob.obstruct", "search_obstruction")],
    "homsearch.template": [("qrob.homsearch", "witness_template")],
    "homsearch.enum": [("qrob.homsearch", "enumerate_hom_detailed")],
    "homsearch.verify_hom": [("qrob.homsearch", "verify_hom")],
    "pipeline.emit": [("qrob.pipeline", "result_to_obj"), ("qrob.pipeline", "document_json")],
    "pipeline.verify": [("qrob.pipeline", "verify_document")],
    "pipeline.cert_verify": [("qrob.pipeline", "verify_certificate_obj")],
}

# Counter name -> (module, attribute path) of the hot leaf it counts.
COUNTED = {
    "ring.multiply_calls": ("qrob.ring", "multiply"),
    "exterior.wedge_calls": ("qrob.exterior", "ExtElement.wedge"),
    "obstruct.kronecker_systems": ("qrob.obstruct", "kronecker_systems"),
}


class Tracer:
    """Spans as `[name, start, end, parent]` lists plus per-name call counts.

    `parent` is the index of the enclosing span in `spans`, or -1 for a root.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._clock = clock

    def timed(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every TIMED and COUNTED target at each name bound to it."""
        for name, targets in TIMED.items():
            for module, path in targets:
                _rebind(module, path, lambda fn, name=name: self.timed(name, fn))
        for name, (module, path) in COUNTED.items():
            _rebind(module, path, lambda fn, name=name: self.counted(name, fn))


def _rebind(module: str, path: str, make_wrapper) -> None:
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if outer:
        # A method: every caller finds it through the class.
        setattr(owner, attr, wrapper)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qrob" or mod_name.startswith("qrob."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def self_times(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children. Children of one span never overlap, because each call runs on
    a single thread, so their durations add up to the part they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), child in zip(spans, covered):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child
    return out
