"""Traced runs: in-memory spans around each layer's public entry points.

The program is not edited.  :class:`Recorder` replaces, from outside, the
attribute each caller looks up — a method on its class, or a function in
every ``repro`` module that bound it by name (``repro.allocation.nsga2``
imports ``non_dominated_sort`` and ``crowding_distance`` by name, so those
bindings are patched along with ``repro.allocation.pareto``'s).  Spans stay
in memory; :meth:`Recorder.write_jsonl` writes them at exit in the
``repro.telemetry`` JSONL schema, so ``repro telemetry FILE --no-tree``
renders them.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Attrs = Optional[Callable[..., Dict[str, Any]]]


def _rows(_self: Any, genes: Any, *_: Any, **__: Any) -> Dict[str, Any]:
    return {"rows": int(len(genes))}


def _hit(result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _operator_seconds(result: Any) -> Dict[str, Any]:
    return {"operator_seconds": float(result.operator_seconds)}


def _front_rows(outcome: Any) -> Dict[str, Any]:
    result = getattr(outcome, "result", None)
    return {"pareto_size": 0 if result is None else int(result.pareto_size)}


#: (span name, module, attribute, attrs from the call, attrs from the result).
#: The span name is the layer's module plus the entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Attrs, Attrs], ...] = (
    ("batch.evaluate_population", "repro.allocation.batch", "BatchEvaluator.evaluate_population", _rows, None),
    ("materialise.solution", "repro.allocation.batch", "BatchEvaluation.solution", None, None),
    ("pareto.dominance_matrix", "repro.allocation.pareto", "dominance_matrix", None, None),
    ("pareto.non_dominated_sort", "repro.allocation.pareto", "non_dominated_sort", None, None),
    ("pareto.crowding_distance", "repro.allocation.pareto", "crowding_distance", None, None),
    ("pareto.front_extend", "repro.allocation.pareto", "ParetoFront.extend_array", None, None),
    ("nsga2.run", "repro.allocation.nsga2", "Nsga2Optimizer.run", None, _operator_seconds),
    # Traced so that the seeding evaluations it makes inside ``nsga2.run`` are
    # told apart from NSGA-II's own (see :func:`nsga2_evaluations`).
    ("heuristics.uniform_allocation", "repro.allocation.heuristics", "uniform_allocation", None, None),
    ("scenarios.build_evaluator", "repro.scenarios.study", "build_scenario_evaluator", None, None),
    ("scenarios.execute", "repro.scenarios.study", "execute_scenario", None, _front_rows),
    ("scenarios.summary", "repro.scenarios.study", "ScenarioOutcome.summary", None, None),
    ("simulation.verify", "repro.simulation.verify", "SimulationVerifier.verify_solutions", None, None),
    ("traffic.run", "repro.traffic.simulator", "DynamicTrafficSimulator.run", None, None),
    ("store.peek", "repro.store.sqlite", "ResultStore.peek", None, _hit),
    ("store.touch", "repro.store.sqlite", "ResultStore.touch", None, None),
    ("store.get", "repro.store.sqlite", "ResultStore.get", None, _hit),
    ("store.put", "repro.store.sqlite", "ResultStore.put", None, None),
    ("store.enqueue", "repro.store.sqlite", "ResultStore.enqueue", None, None),
    ("store.claim", "repro.store.sqlite", "ResultStore.claim", None, None),
    ("store.complete", "repro.store.sqlite", "ResultStore.complete", None, None),
    ("worker.job", "repro.store.worker", "Worker.process_one", None, None),
)

STORE_OPS = ("peek", "touch", "get", "put", "enqueue", "claim", "complete")

#: The program's own counters the traced counts are checked against.
COUNTERS = (
    "repro_batch_rows_total",
    "repro_engine_evaluations_total",
    "repro_engine_memo_hits_total",
    "repro_store_hits_total",
    "repro_jobs_completed_total",
    "repro_traffic_events_total",
)


class _Open:
    __slots__ = ("name", "span_id", "parent_id", "depth", "start", "children")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str], depth: int) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.children = 0.0
        self.start = time.perf_counter()


class Recorder:
    """Collects spans of the wrapped entry points while :attr:`recording`."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self.recording = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans
    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, original: Callable[..., Any], call_attrs: Attrs,
              result_attrs: Attrs, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        stack = self._stack()
        parent = stack[-1] if stack else None
        handle = _Open(
            name,
            f"{os.getpid():x}-{next(self._ids):x}",
            None if parent is None else parent.span_id,
            len(stack),
        )
        stack.append(handle)
        attrs: Dict[str, Any] = {} if call_attrs is None else call_attrs(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            attrs["error"] = True
            raise
        else:
            if result_attrs is not None:
                attrs.update(result_attrs(result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - handle.start
            if parent is not None:
                parent.children += duration
            attrs["self_s"] = duration - handle.children
            self.spans.append(
                {
                    "name": name,
                    "trace": self.trace_id,
                    "span": handle.span_id,
                    "parent": handle.parent_id,
                    "start": handle.start,
                    "end": end,
                    "duration": duration,
                    "depth": handle.depth,
                    "attrs": attrs,
                }
            )

    def _wrapper(self, name: str, original: Callable[..., Any], call_attrs: Attrs,
                 result_attrs: Attrs) -> Callable[..., Any]:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return original(*args, **kwargs)
            return self._call(name, original, call_attrs, result_attrs, args, kwargs)

        return traced

    # -------------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every entry point (importing its module first)."""
        for name, module_name, attribute, call_attrs, result_attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrapper(name, original, call_attrs, result_attrs))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrapper(name, original, call_attrs, result_attrs)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, wrapper)

    def _patch(self, owner: Any, attribute: str, wrapper: Callable[..., Any]) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # ---------------------------------------------------------------- output
    def write_jsonl(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def span_totals(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy time and self time (seconds)."""
    totals: Dict[str, Dict[str, float]] = {}
    for record in spans:
        entry = totals.setdefault(record["name"], {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["busy_s"] += record["duration"]
        entry["self_s"] += record["attrs"]["self_s"]
    return totals


def attr_sum(spans: List[Dict[str, Any]], name: str, key: str) -> float:
    """Sum of one numeric (or boolean) span attribute over spans of ``name``."""
    return float(sum(record["attrs"].get(key, 0) for record in spans if record["name"] == name))


def nsga2_evaluations(spans: List[Dict[str, Any]]) -> float:
    """Rows NSGA-II evaluated: ``batch.evaluate_population`` rows directly under ``nsga2.run``.

    With the batch engine the optimiser sends exactly its memo misses there;
    the seeding heuristics it calls have spans of their own, so their
    evaluations are not direct children of the run.
    """
    runs = {record["span"] for record in spans if record["name"] == "nsga2.run"}
    return float(
        sum(
            record["attrs"]["rows"]
            for record in spans
            if record["name"] == "batch.evaluate_population" and record["parent"] in runs
        )
    )


def summarise(spans: List[Dict[str, Any]], counters: Dict[str, float],
              nsga2_rows: int = 0) -> Dict[str, Any]:
    """Span totals and the traced counts, beside the program's counters.

    ``nsga2_rows`` is what the traced NSGA-II runs look up, population x
    (generations + 1) per run, taken from the scenario documents: the rows
    not evaluated are the memo hits.
    """
    evaluations = nsga2_evaluations(spans)
    return {
        "totals": span_totals(spans),
        "batch_rows": attr_sum(spans, "batch.evaluate_population", "rows"),
        "evaluations": evaluations,
        "memo_hits": nsga2_rows - evaluations,
        "operator_s": attr_sum(spans, "nsga2.run", "operator_seconds"),
        "front_rows": attr_sum(spans, "scenarios.execute", "pareto_size"),
        "get_hits": attr_sum(spans, "store.get", "hit"),
        "lookup_hits": attr_sum(spans, "store.get", "hit") + attr_sum(spans, "store.peek", "hit"),
        "counters": counters,
    }
