"""Span tracing of the simulator's layers, installed from outside the program.

The layers are the package's modules.  A wrapper is installed at every
module attribute of the ``hyperqsdc`` package that is bound to a target
function object, so names imported with ``from .hyperstate import ...`` are
traced as well as the home definition.  A target the program no longer
defines is reported as absent and skipped.

Each wrapped call records a span: id, parent span id, name, start, end and
the session index (the ``index`` argument of the latest
``harness.run_one_session`` call, -1 before the first session).  Self time
is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, whether any wrapped function runs inside it)
TARGETS = (
    ("cli", "main", True),
    ("harness", "run", True),
    ("harness", "run_one_session", True),
    ("harness", "stats_text", False),
    ("harness", "write_transcripts", False),
    ("protocol", "prepare_block", True),
    ("protocol", "transmit_forward", True),
    ("protocol", "first_check", True),
    ("protocol", "encode_message", True),
    ("protocol", "transmit_return", True),
    ("protocol", "decode_and_second_check", True),
    ("channel", "transmit", True),
    ("adversary", "intercept_resend", True),
    ("adversary", "apply_defenses", False),
    ("adversary", "guess_encoding_op", False),
    ("hyperstate", "measure_photon", True),
    ("hyperstate", "measure_photon_dof", False),
    ("hyperstate", "chbsa", False),
    ("hyperstate", "apply_encoding", False),
    ("hyperstate", "apply_pauli_a", False),
    ("hyperstate", "source_state", False),
)

PACKAGE = "hyperqsdc"
SESSION_TARGET = "harness.run_one_session"
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "session")


def _session_index(args, kwargs) -> int:
    # run_one_session(rc, master_seed, index)
    if "index" in kwargs:
        return kwargs["index"]
    return args[2] if len(args) > 2 else -1


def _delivered(result) -> int:
    return int(result.delivered)


def _message_pairs(result) -> int:
    return len(result.message_positions)


# Counts read at a layer boundary from a call's result: name -> (counter, reader).
COUNTERS = {
    "channel.transmit": ("delivered", _delivered),
    "protocol.encode_message": ("message_pairs", _message_pairs),
}


class Tracer:
    """Wraps the target functions while installed; one instance per traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget spans and totals; called before each traced ``simulate`` call."""
        self.spans: list[tuple] = []
        self.totals = {f"{m}.{f}": [0, 0.0, 0.0] for m, f, _ in self.targets}  # calls, incl, self
        self.counts = {counter: 0 for counter, _ in COUNTERS.values()}
        self._stack: list[list] = []
        self._next_id = 0
        self.session = -1

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, func_name, _ in self.targets:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            target = getattr(home, func_name, None)
            if not callable(target):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        is_session = name == SESSION_TARGET
        counter, reader = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_session:
                tracer.session = _session_index(args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                total = tracer.totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                tracer.spans.append((frame[0], parent[0] if parent else -1, name, start, end,
                                     tracer.session))
            if counter is not None:
                try:
                    tracer.counts[counter] += reader(result)
                except (AttributeError, TypeError):
                    tracer.unreadable.add(counter)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """``<module>.<function>.calls`` / ``.self_s`` / ``.incl_s`` of the last reset window."""
        out = {}
        for module_name, func_name, has_children in self.targets:
            name = f"{module_name}.{func_name}"
            calls, incl, self_s = self.totals[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if has_children:
                out[f"{name}.incl_s"] = incl
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line, fields in ``SPAN_FIELDS`` order after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "absent": self.absent}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
