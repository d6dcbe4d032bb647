"""Traced run: wrap corrqec's public functions and account time per layer.

Every wrapped call is one span.  A span's self time is its duration minus
the time covered by the wrapped calls it made.  Spans are aggregated as
they close (calls, self time, extra counts), so memory stays flat however
many points a request evaluates.

A name bound by ``from .x import f`` is a separate reference in each
importing module, so patching replaces the function wherever a
``corrqec`` module (or a dict in one, such as ``checks.SUITES``) holds it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

KERNEL_SCHEMES = {6: "concat6", 3: "bit3", 2: "dfs2"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Callable | None = None,
        count: tuple[str, Callable] | None = None,
        inner: tuple[str, ...] = (),
    ) -> Callable:
        """Span wrapper for ``fn``.

        ``tag(args)`` names a sub-bucket ``b = f"{name}.{tag(args)}"``:
        ``counts[b]`` counts its calls and ``counts[b + ".self_s"]`` sums
        their self time.  ``count = (key, f)`` adds ``f(args, result)`` to
        ``counts[key]``.  ``inner`` lists span names whose calls made inside
        this span add to ``counts[name + ".inner"]``.
        """

        def wrapper(*args, **kwargs):
            before = sum(self.calls[n] for n in inner)
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += own
                self.total_s[name] += elapsed
                if tag is not None:
                    bucket = f"{name}.{tag(args)}"
                    self.counts[bucket] += 1
                    self.counts[f"{bucket}.self_s"] += own
                if inner:
                    self.counts[f"{name}.inner"] += sum(self.calls[n] for n in inner) - before
            if count is not None:
                self.counts[count[0]] += count[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _rows(args, result) -> int:
    return len(args[0])


def _terms(args, result) -> int:
    return len(result.terms)


def span_table() -> list[tuple]:
    """(span name, module, attribute, wrap options) for every traced function."""
    from corrqec import channels, checks, cli, fidelity, recovery, schemes, sweep

    csv_rows = {"count": ("sweep.render.csv.rows", _rows)}
    json_rows = {"count": ("sweep.render.json.rows", _rows)}
    table = [
        ("channels.build_channel", channels, "build_channel",
         {"count": ("channels.kraus_terms", _terms)}),
        ("schemes.scheme_recovery", schemes, "scheme_recovery", {}),
        ("recovery.correctable_set", recovery, "correctable_set", {}),
        ("recovery.build_recovery", recovery, "build_recovery", {}),
        ("fidelity.kernel", fidelity, "entanglement_fidelity_corrected",
         {"tag": lambda args: KERNEL_SCHEMES.get(args[0].n, f"n{args[0].n}")}),
        ("fidelity.unencoded", fidelity, "entanglement_fidelity_unencoded", {}),
        ("fidelity.evaluate", fidelity, "evaluate", {}),
        ("fidelity.closed_form", fidelity, "closed_form", {}),
        ("fidelity.threshold_mu", fidelity, "threshold_mu",
         {"inner": ("fidelity.closed_form", "fidelity.evaluate")}),
        ("fidelity.dense_oracle", fidelity, "dense_oracle_fidelity", {}),
        ("sweep.run_sweep", sweep, "run_sweep", {}),
        ("sweep.run_threshold", sweep, "run_threshold", {}),
        ("sweep.render.csv", sweep, "render_fidelity_csv", csv_rows),
        ("sweep.render.json", sweep, "render_fidelity_json", json_rows),
        ("sweep.render.csv", sweep, "render_threshold_csv", csv_rows),
        ("sweep.render.json", sweep, "render_threshold_json", json_rows),
        ("checks.run_suites", checks, "run_suites", {}),
        ("cli.main", cli, "main", {}),
    ]
    for suite, fn in checks.SUITES.items():
        table.append((f"checks.{suite}", checks, fn.__name__, {"inner": ("fidelity.evaluate",)}))
    return table


@contextmanager
def traced(tracer: Tracer):
    """Patch every binding of the traced functions; restore them on exit."""
    replacements = {}
    for name, module, attr, options in span_table():
        original = getattr(module, attr)
        replacements[id(original)] = (original, tracer.wrap(name, original, **options))
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "corrqec" and not mod_name.startswith("corrqec."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in replacements:
                undo.append((namespace, attr, value))
                namespace[attr] = replacements[id(value)][1]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements:
                        undo.append((value, key, item))
                        value[key] = replacements[id(item)][1]
    try:
        yield tracer
    finally:
        for container, key, value in reversed(undo):
            container[key] = value
