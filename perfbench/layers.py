"""Host-time attribution for the traced run.

Two instruments, both attached from the benchmark's side of the API so
the simulator itself stays untouched:

* :class:`Spans` -- wall-clock spans around the public calls a workload
  makes (``Router()``, the bulk table load, ``Router.run``, churn
  callbacks, ``Topology.converge``, ``run_trial``).  Spans are cheap
  (two ``perf_counter`` reads), so they are recorded on every round,
  traced or not.
* :class:`LayerProfile` -- a ``cProfile`` hook whose self time is summed
  by ``repro.<package>``, the repository's layers (``engine``, ``ixp``,
  ``net``, ``core``, ``hosts``, ``control``, ``topo``, ``faults``,
  ``obs``, ``chaos``, ...).  Time spent in builtins and the standard
  library is charged to the layer that called it; what no layer called
  is ``other``.  The layer totals sum to the profiler's total by
  construction; the benchmark checks that they do.
"""

# repro-lint: file-disable=RPR102 -- a benchmark measures host time on purpose.

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Layers reported as ``<layer>.self_s``, in output order.  Any other
#: ``repro.<package>`` (or a top-level ``repro`` module) lands in
#: ``other`` together with the benchmark's own frames.
LAYERS: Tuple[str, ...] = ("engine", "ixp", "net", "core", "hosts", "control",
                           "topo", "faults", "obs", "chaos")


class Spans:
    """In-memory span log: ``(name, start, end, parent)`` with
    ``perf_counter`` seconds; ``parent`` is the index of the enclosing
    span or ``-1``."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, int]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        index = len(self.records)
        self.records.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            rec = self.records[index]
            self.records[index] = (rec[0], rec[1], time.perf_counter(), rec[3])

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, __ in self.records if n == name)

    def as_dicts(self) -> List[Dict[str, object]]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.records]


def _repro_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class LayerProfile:
    """``cProfile`` over the timed run phase, split into layer self time.

    Call :meth:`enable` / :meth:`disable` around the code to attribute,
    then :meth:`split`."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._root = _repro_dir()
        self._layer_cache: Dict[str, Optional[str]] = {}

    def enable(self) -> None:
        self._profile.enable()

    def disable(self) -> None:
        self._profile.disable()

    def _layer_of(self, filename: str) -> Optional[str]:
        """``repro.<package>`` of a source file, ``"repro"`` for a
        top-level module, ``None`` outside the package."""
        layer = self._layer_cache.get(filename, "")
        if layer != "":
            return layer
        layer = None
        path = os.path.abspath(filename) if not filename.startswith("~") else filename
        if path.startswith(self._root):
            parts = path[len(self._root):].split(os.sep)
            layer = parts[0] if len(parts) > 1 else "repro"
        self._layer_cache[filename] = layer
        return layer

    def split(self) -> Tuple[Dict[str, float], float]:
        """``({layer: self seconds}, profiler total seconds)``; the layer
        self times sum to the total.

        A function outside ``repro`` (a builtin, the standard library)
        has its self time divided among its callers in proportion to
        the time each call edge accounts for, and each share goes to
        the caller's layer (``other`` if the caller is outside too)."""
        stats = pstats.Stats(self._profile).stats
        out: Dict[str, float] = {name: 0.0 for name in LAYERS}
        out["other"] = 0.0
        total = 0.0
        for func, (__, ___, tt, ____, callers) in stats.items():
            total += tt
            layer = self._layer_of(func[0])
            if layer is not None:
                out[layer if layer in out else "other"] += tt
                continue
            edge_total = sum(edge[2] for edge in callers.values())
            if edge_total <= 0.0:
                out["other"] += tt
                continue
            for caller, edge in callers.items():
                owner = self._layer_of(caller[0])
                key = owner if owner in out else "other"
                out[key] += tt * edge[2] / edge_total
        return out, total
