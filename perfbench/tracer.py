"""Span recording around bellkit's public functions, installed from outside.

The benchmark child imports ``bellkit.cli`` and then replaces the names
that the CLI and the modules look up at call time with timing wrappers.
Nothing inside ``src/`` is modified.  Spans stay in memory and are
written out by the child when ``main`` returns.

A span is ``[name, start, end, parent_index]``; ``parent_index`` is -1
for a root span.  Times are ``time.perf_counter`` seconds.
"""

from __future__ import annotations

import importlib
import time

#: (span name, module, attribute) for every wrapped call site.  The span
#: name is ``<bellkit module>.<function>``; the attribute is the name the
#: caller resolves at call time, which for CLI call sites is the name
#: imported into ``bellkit.cli``.
TARGETS = (
    ("cli.main", "bellkit.cli", "main"),
    ("cli.read_count_csv", "bellkit.cli", "read_count_csv"),
    ("cli.write_count_csv", "bellkit.cli", "write_count_csv"),
    ("cli.read_tomo_csv", "bellkit.cli", "read_tomo_csv"),
    ("trial_sim.simulate_trials", "bellkit.cli", "simulate_trials"),
    ("trial_sim.trial_log_to_text", "bellkit.cli", "trial_log_to_text"),
    ("trial_sim.parse_trial_log", "bellkit.cli", "parse_trial_log"),
    ("pbr.pbr_p_value", "bellkit.cli", "pbr_p_value"),
    ("pbr.project_no_signaling", "bellkit.pbr", "project_no_signaling"),
    ("pbr.closest_lhv", "bellkit.pbr", "closest_lhv"),
    ("bell.s_alpha_from_counts", "bellkit.cli", "s_alpha_from_counts"),
    ("di_bounds.quantify", "bellkit.cli", "di_quantify"),
    ("di_bounds.multi_alpha_incompatibility_bound", "bellkit.di_bounds",
     "multi_alpha_incompatibility_bound"),
    ("interplay.trajectory", "bellkit.cli", "trajectory"),
    ("interplay.max_s_fixed_concurrence", "bellkit.interplay",
     "max_s_fixed_concurrence"),
    ("interplay.max_s_fixed_ode", "bellkit.interplay", "max_s_fixed_ode"),
    ("tomo.mle_fit", "bellkit.cli", "mle_fit"),
    ("qstate.bell_diagonal", "bellkit.cli", "bell_diagonal"),
    ("qstate.fidelity", "bellkit.cli", "fidelity"),
)

#: Spans reported separately per PBR outcome alphabet.
ALPHABETS = ("binary", "ternary")
_BY_ALPHABET = {"pbr.pbr_p_value", "pbr.project_no_signaling", "pbr.closest_lhv"}

#: Work counters recorded at span boundaries.
COUNTERS = ("trial_sim.trials", "trial_sim.log_bytes")


def span_names() -> list[str]:
    """Every span name the traced run reports, alphabet suffixes included."""
    names = []
    for name, _, _ in TARGETS:
        if name in _BY_ALPHABET:
            names.extend(f"{name}.{a}" for a in ALPHABETS)
        else:
            names.append(name)
    return names


def _alphabet(behavior) -> str:
    k = len(getattr(behavior, "outcomes", ()))
    return {2: "binary", 3: "ternary"}.get(k, f"k{k}")


def _log_alphabet(records) -> str:
    ternary = any(a == "u" or b == "u" for _, _, a, b in records)
    return "ternary" if ternary else "binary"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = [-1]

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        by_alphabet = name in _BY_ALPHABET
        inherits_alphabet = name == "pbr.pbr_p_value"

        def wrapper(*args, **kwargs):
            span_name = name
            if by_alphabet and not inherits_alphabet and args:
                span_name = f"{name}.{_alphabet(args[0])}"
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if inherits_alphabet:
                # The alphabet is known once the first block rebuild has
                # projected; only a log shorter than one block is scanned.
                label = next((s[0].rsplit(".", 1)[1] for s in spans[idx + 1:]
                              if s[3] == idx), None)
                spans[idx][0] = f"{name}.{label or _log_alphabet(args[0])}"
            elif name == "trial_sim.simulate_trials":
                counts["trial_sim.trials"] += int(getattr(result, "trials", 0))
            elif name == "trial_sim.trial_log_to_text":
                counts["trial_sim.log_bytes"] += len(result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; a missing name is skipped and
        reports zero calls."""
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(name, fn))
