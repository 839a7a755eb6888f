"""In-memory span tracer wrapped around compfrac's public layer functions.

A span records name, layer, start, end and the index of its parent span,
plus counts taken from the call's result.  Spans stay in memory and are
written out once, when the traced run ends.

``compfrac.cli`` binds the layer functions by name at import, so every
target lists the module whose attribute the caller actually looks up:
wrapping only the defining module would leave the CLI untraced.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []

    def wrap(self, layer: str, name: str, fn, count=None):
        """Return fn wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.update(count(result))
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (module, attribute, layer, count or None) tuples."""
        for module, attr, layer, count in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, attr, original, count))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def compfrac_targets():
    """Every public layer function the pipeline calls, where it is looked up."""
    from compfrac import cli, contfrac, moments

    def solve_counts(sol):
        return {
            "steps_accepted": sol.stats["steps_accepted"],
            "steps_rejected": sol.stats["steps_rejected"],
            "cells": sol.grid.cells,
        }

    def select_counts(selection):
        return {"levels_scanned": len(selection.candidates)}

    def verify_counts(report):
        return {"rows": len(report.rows)}

    return [
        (cli, "main", "cli", None),
        (cli, "write_snapshot_csv", "cli.write", None),
        (cli, "write_run_manifest", "cli.write", None),
        (cli, "theta_derivatives_comptonization", "moments", None),
        (moments, "theta_derivatives_comptonization", "moments", None),
        (cli, "cf_coefficients", "contfrac", None),
        (contfrac, "cf_coefficients", "contfrac", None),
        (cli, "select_approximant", "contfrac", select_counts),
        (contfrac, "select_approximant", "contfrac", select_counts),
        (cli, "find_defects", "contfrac", None),
        (contfrac, "find_defects", "contfrac", None),
        (cli, "cf_eval", "contfrac", None),
        (cli, "taylor_eval", "contfrac", None),
        (cli, "solve_transport", "transport", solve_counts),
        (cli, "self_consistency", "verify", verify_counts),
    ]


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus its direct children's."""
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    out: dict = {}
    for span, inner in zip(spans, child_total):
        own = span["end"] - span["start"] - inner
        out[span["layer"]] = out.get(span["layer"], 0.0) + own
    return out


def layer_metrics(spans) -> dict:
    """Per-layer busy times and work counts from one traced run's spans."""

    def of(*names):
        return [s for s in spans if s["name"] in names]

    def total(selected):
        return sum(s["end"] - s["start"] for s in selected)

    own = self_times(spans)
    tables = of("theta_derivatives_comptonization")
    selects = of("select_approximant")
    curves = of("cf_eval", "taylor_eval")
    solves = of("solve_transport")
    verifies = of("self_consistency")

    solve_s = total(solves)
    accepted = sum(s["steps_accepted"] for s in solves)
    rejected = sum(s["steps_rejected"] for s in solves)
    attempts = accepted + rejected
    cell_steps = sum(s["cells"] * (s["steps_accepted"] + s["steps_rejected"]) for s in solves)

    return {
        "moments.busy_s": own.get("moments", 0.0),
        "moments.calls": len(tables),
        "moments.first_call_s": total(tables[:1]),
        "contfrac.busy_s": own.get("contfrac", 0.0),
        "contfrac.coeff_s": total(of("cf_coefficients")),
        "contfrac.select_s": total(selects),
        "contfrac.select_calls": len(selects),
        "contfrac.levels_scanned": sum(s["levels_scanned"] for s in selects),
        "contfrac.defect_scan_s": total(of("find_defects")),
        "contfrac.curve_evals": len(curves),
        "contfrac.curve_s": total(curves),
        "transport.solve_s": solve_s,
        "transport.solve_calls": len(solves),
        "transport.steps_accepted": accepted,
        "transport.steps_rejected": rejected,
        "transport.step_accept_ratio": accepted / attempts if attempts else 0.0,
        "transport.attempt_us": 1e6 * solve_s / attempts if attempts else 0.0,
        "transport.cell_steps_per_s": cell_steps / solve_s if solve_s else 0.0,
        "verify.busy_s": own.get("verify", 0.0),
        "verify.rows": sum(s["rows"] for s in verifies),
        "cli.self_s": own.get("cli", 0.0),
        "cli.write_s": own.get("cli.write", 0.0),
    }
