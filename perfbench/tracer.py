"""Run one ``loopstress`` command inside this process, optionally traced.

    python3 perfbench/tracer.py --report FILE [--trace] -- <loopstress args>

``src`` must be importable (``PYTHONPATH=src``).  The command runs through
``loopstress.cli.main`` in this process, so pass ``--workers 1`` for a
trace that sees every simulation.  With ``--trace`` the public functions of
each module are wrapped at the names their callers look them up by (the
CLI calls ``campaign.optimistic_amplitude_bound``, while ``campaign``
calls its own imported ``run_plant``), and every call becomes a span
``[name, start, end, parent, counts]`` kept in memory.  At exit the report
``{"exit": code, "wall_s": seconds, "spans": [...]}`` is written to FILE;
span 0 is the root around the whole command and its duration is
``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import wraps
from time import perf_counter

from loopstress import analysis, campaign, cli, persist, signals, spectral


def _bound_counts(bound_map, plant, inputs, *args, **kwargs):
    dt = inputs.sample_interval
    spp = {
        signals.samples_per_period(signals.snap_time_gain(f, dt), dt)
        for f in bound_map.frequencies
    }
    return {
        "probes": bound_map.probes,
        "frequencies": len(bound_map.frequencies),
        "distinct_spp": len(spp),
        "unresolved": len(bound_map.unresolved),
    }


def _mr1_counts(violations, results, *args, **kwargs):
    per_shape: dict = {}
    for r in results:
        per_shape[r.case.shape] = per_shape.get(r.case.shape, 0) + 1
    return {
        "violations": len(violations),
        "pairs": sum(n * (n - 1) for n in per_shape.values()),
    }


def _file_bytes(_, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counts(result, *call args) or None)
WRAPPED = (
    (cli, "load_config", "config.load", None),
    (campaign, "optimistic_amplitude_bound", "campaign.bound", _bound_counts),
    (campaign, "generate_test_set", "campaign.generate",
     lambda ts, *a, **k: {"tests": len(ts.tests)}),
    (campaign, "execute_campaign", "campaign.run",
     lambda results, *a, **k: {"tests": len(results)}),
    (campaign, "render_reference", "signals.render", None),
    (campaign, "run_plant", "plants.sim",
     lambda run, *a, **k: {"steps": len(run.trace.output), "diverged": int(run.diverged)}),
    (campaign, "fa_map", "spectral.fa_map", None),
    (campaign, "degree_of_nonlinearity", "spectral.dnl", None),
    (campaign, "dof_profile", "spectral.dof", None),
    (spectral, "dft_amplitude", "spectral.dft", None),
    (analysis, "check_mr1", "analysis.mr1", _mr1_counts),
    (analysis, "check_mr2", "analysis.mr2",
     lambda out, *a, **k: {"violations": len(out[0]), "skipped": out[1]}),
    (analysis, "check_mr3", "analysis.mr3", None),
    (analysis, "estimate_bandwidth", "analysis.bandwidth", None),
    (analysis, "export_plot_data", "analysis.export", None),
    (analysis, "classify_scope", "analysis.scope", None),
    *(
        (persist, fn, f"persist.{fn}", _file_bytes)
        for fn in (
            "save_bounds", "save_test_set", "save_results", "save_json_report",
            "save_csv", "load_bounds", "load_test_set", "load_results",
            "load_json_report",
        )
    ),
)


class Tracer:
    """Spans of one process, recorded in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def call(self, name: str, fn, args, kwargs, counts=None):
        """Call ``fn`` inside a new span; ``counts(result, *args)`` fills its counts."""
        span = [name, 0.0, 0.0, self._open[-1], None]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        if counts is not None:
            span[4] = counts(result, *args, **kwargs)
        return result

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        fn = getattr(module, attr)

        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        setattr(module, attr, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", required=True, help="where to write the JSON report")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- loopstress args")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    if args.trace:
        for module, attr, name, counts in WRAPPED:
            tracer.wrap(module, attr, name, counts)
    code = tracer.call("run", cli.main, (command,), {})
    root = tracer.spans[0]
    spans = tracer.spans if args.trace else [root]
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "wall_s": root[2] - root[1], "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
