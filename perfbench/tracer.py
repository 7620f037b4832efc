"""Span tracer installed from outside the program.

The benchmark wraps the public functions of each ``entaccess`` layer by
rebinding every module-level name that refers to them, so calls the program
makes internally (``contend`` calling ``measure``, ``measure`` calling
``apply_single``) are traced as well as the benchmark's own calls. No file
of the program changes.

Each wrapped call records a span: name, start, end and the span that caused
it. A function's self time is its span's duration minus the durations of its
direct child spans. ``StateVector`` constructions are counted rather than
spanned; the time spent counting them is charged to no layer.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Layer -> public functions traced in that layer. Names match the modules.
LAYERS = {
    "circuits": ("prepare_leader_aware", "prepare_ghz"),
    "protocol": ("contend", "read_ancillas", "teleport_send", "teleport_receive"),
    "extraction": ("extract_epr",),
    "statevector": (
        "measure",
        "apply_single",
        "apply_cnot",
        "tensor_product",
        "product_state",
        "fidelity",
        "enumerate_branches",
    ),
    "session": ("run_session", "fairness_experiment", "enumerate_slot_branches"),
    "cli": ("main",),
}

COMPLEX_BYTES = np.dtype(complex).itemsize

# (name, unit, better) of every per-layer metric the traced run reports.
PER_LAYER_METRICS = []
for _layer, _functions in LAYERS.items():
    for _fn in _functions:
        PER_LAYER_METRICS.append((f"{_layer}.{_fn}.calls", "count", "lower"))
        if _layer != "cli":
            PER_LAYER_METRICS.append((f"{_layer}.{_fn}.self_s", "s", "lower"))
PER_LAYER_METRICS += [
    ("cli.format_s", "s", "lower"),
    ("statevector.states_built", "count", "lower"),
    ("statevector.amplitudes_touched", "count", "lower"),
    ("statevector.bytes_moved_computed", "B", "lower"),
    ("statevector.support_fraction", "ratio", "higher"),
    ("statevector.peak_qubits", "count", "lower"),
    ("setup.scipy_stats_import_s", "s", "lower"),
    ("setup.entaccess_import_s", "s", "lower"),
    ("trace.untraced_throughput_per_s", "1/s", "higher"),
    ("trace.traced_throughput_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """In-memory span and counter store; one per traced process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.spans: list[tuple] = []  # (span id, parent id, name, start ns, end ns)
        self.keep_spans = False
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._next_id = 0
        self.states_built = 0
        self.amplitudes = 0
        self.nonzero = 0
        self.peak_qubits = 0

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                if self.keep_spans:
                    parent = self._stack[-1][0] if self._stack else None
                    self.spans.append((frame[0], parent, name, frame[1], end))

        return traced

    def count_state(self, state) -> None:
        """Record one constructed state; the counting time is excluded from self times."""
        start = time.perf_counter_ns()
        size = state.amplitudes.shape[0]
        self.states_built += 1
        self.amplitudes += size
        self.nonzero += int(np.count_nonzero(state.amplitudes))
        self.peak_qubits = max(self.peak_qubits, state.num_qubits)
        if self._stack:
            self._stack[-1][2] += time.perf_counter_ns() - start

    def install(self, entaccess) -> None:
        """Rebind every traced function in every ``entaccess`` module to its wrapper."""
        modules = [entaccess] + [getattr(entaccess, layer) for layer in LAYERS]
        wrappers = {}
        for layer, functions in LAYERS.items():
            module = getattr(entaccess, layer)
            for fn in functions:
                original = getattr(module, fn)
                wrappers[id(original)] = self.span(f"{layer}.{fn}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

        state_cls = entaccess.statevector.StateVector
        post_init = state_cls.__post_init__

        def counted_post_init(state) -> None:
            post_init(state)
            self.count_state(state)

        state_cls.__post_init__ = counted_post_init

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed as in ``PER_LAYER_METRICS``."""
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            for fn in functions:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = self.calls.get(name, 0)
                if layer != "cli":
                    out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
        # cli.main's self time: the command line's parsing and formatting,
        # i.e. the time in cli.main outside run_session and the layers below.
        out["cli.format_s"] = self.self_ns.get("cli.main", 0) / 1e9
        out["statevector.states_built"] = self.states_built
        out["statevector.amplitudes_touched"] = self.amplitudes
        out["statevector.bytes_moved_computed"] = self.amplitudes * COMPLEX_BYTES
        out["statevector.support_fraction"] = (
            self.nonzero / self.amplitudes if self.amplitudes else 0.0
        )
        out["statevector.peak_qubits"] = self.peak_qubits
        return out
