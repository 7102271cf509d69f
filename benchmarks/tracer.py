"""Span tracing of dmrecon's public functions, from outside the package.

`install()` wraps each function in TARGETS and swaps the wrapper in for every
reference to the original that dmrecon's modules hold: module attributes,
from-imports (`experiments.derive_seed`) and registry dicts whose values are
the function or a tuple holding it (`experiments._RECONSTRUCTORS`,
`cli._RECONSTRUCTORS`). A function that no longer exists is reported as
absent rather than counted as zero calls.

Each call records a span [name, start, end, parent index, trace id]. Every
`experiments.run_point` call, one grid point, opens a new trace id that its
child spans inherit; spans outside any grid point carry trace id 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

TARGETS = (
    "protocol.evolve",
    "protocol.outcome_probabilities",
    "protocol.pointer_setting",
    "correlations.build_tables",
    "correlations.correlation_set_from_tables",
    "correlations.sample_counts",
    "correlations.sampled_records_from_counts",
    "correlations.records_from_table",
    "correlations.derive_seed",
    "experiments.build_tables",
    "experiments.run_point",
    "experiments.run_scenario",
    "experiments.sort_rows",
    "reconstruct.reconstruct_weak",
    "reconstruct.reconstruct_exact_i",
    "reconstruct.reconstruct_exact_ii",
    "reconstruct.finalize",
    "reconstruct.qst_linear_inversion",
    "reconstruct.standard_projector_family",
    "reconstruct.born_probabilities",
    "qmath.trace_distance",
    "metrics.mean_square_error",
    "metrics.error_lower_bound",
    "io.parse_config",
    "io.results_csv",
    "io.write_results",
)

# Functions only the sampled path calls: zero calls on an exact-source workload.
SAMPLING_ONLY = frozenset(
    {"correlations.sample_counts", "correlations.sampled_records_from_counts",
     "correlations.derive_seed"}
)

# Estimators whose returned results over attempts give reconstruct.ok_ratio.
ESTIMATORS = (
    "reconstruct.reconstruct_weak",
    "reconstruct.reconstruct_exact_i",
    "reconstruct.reconstruct_exact_ii",
    "reconstruct.qst_linear_inversion",
)

# References held outside the defining module; each must point at the wrapper
# after install(), or the traced run would silently time nothing through them.
HELD_REFERENCES = (
    "experiments._RECONSTRUCTORS",
    "cli._RECONSTRUCTORS",
    "experiments.derive_seed",
)

NEW_TRACE = "experiments.run_point"


class Tracer:
    """Spans and counts recorded by the installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.raised: Counter = Counter()
        self.records_built = 0
        self.absent: list[str] = []
        self.patched: list[str] = []
        self._stack: list[int] = []
        self._traces = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        new_trace = name == NEW_TRACE
        count_records = name == "correlations.correlation_set_from_tables"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if new_trace:
                self._traces += 1
                trace_id = self._traces
            else:
                trace_id = spans[parent][4] if parent >= 0 else 0
            span = [name, clock(), 0.0, parent, trace_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count_records:
                self.records_built += len(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function calls, raised and self time (span minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        present = [t for t in TARGETS if t not in self.absent]
        return {
            "functions": {
                t: {"calls": calls[t], "raised": self.raised[t], "self_s": self_s[t]}
                for t in present
            },
            "records_built": self.records_built,
            "trace_ids": self._traces,
            "spans": len(self.spans),
            "absent": list(self.absent),
            "patched": list(self.patched),
        }


def _resolve(dotted: str):
    module, _, attr = dotted.rpartition(".")
    return importlib.import_module(f"dmrecon.{module}"), attr


def install(tracer: Tracer) -> None:
    """Wrap every target found and patch all references dmrecon holds to it."""
    originals: dict[int, tuple[object, object]] = {}
    for target in TARGETS:
        module, attr = _resolve(target)
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.absent.append(target)
            continue
        originals[id(fn)] = (fn, tracer.wrap(target, fn))

    def swap(value):
        hit = originals.get(id(value))
        return hit[1] if hit is not None else None

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dmrecon" and not mod_name.startswith("dmrecon."):
            continue
        short = mod_name.partition(".")[2] or mod_name
        for attr, value in list(vars(module).items()):
            wrapper = swap(value)
            if wrapper is not None:
                setattr(module, attr, wrapper)
                tracer.patched.append(f"{short}.{attr}")
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if isinstance(entry, tuple):
                        swapped = tuple(swap(e) or e for e in entry)
                        changed = any(a is not b for a, b in zip(swapped, entry))
                    else:
                        swapped = swap(entry)
                        changed = swapped is not None
                    if changed:
                        value[key] = swapped
                        tracer.patched.append(f"{short}.{attr}[{key!r}]")

    for ref in HELD_REFERENCES:
        module, attr = _resolve(ref)
        held = getattr(module, attr, None)
        entries = held.values() if isinstance(held, dict) else [held]
        for entry in entries:
            for fn in entry if isinstance(entry, tuple) else (entry,):
                if id(fn) in originals:
                    raise RuntimeError(f"{ref} still holds the unwrapped {fn.__name__}")
