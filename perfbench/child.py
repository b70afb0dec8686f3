"""One benchmark operation, in a fresh interpreter.

usage: python3 perfbench/child.py WORKLOAD REPORT {setup,op,traced}

Imports ``flowrefine`` from the checkout's ``src/``, parses and elaborates
the workload's input files (the set-up), then, unless MODE is ``setup``,
runs the workload's CLI commands in this process and writes a JSON report to
REPORT: the ``time.monotonic()`` stamps at which set-up and the verdict
ended, every command's exit code and stdout, and in ``traced`` mode the
per-layer totals.  Linux's monotonic clock is shared by all processes, so
the parent subtracts its own spawn stamp to get set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, setup_inputs

ROOT = Path(__file__).resolve().parent.parent


def set_up(workload):
    from flowrefine import archfile

    for command in workload.commands:
        archs, scripts, horizon = setup_inputs(command.argv)
        for path in archs:
            doc = archfile.parse_architecture((ROOT / path).read_text(encoding="utf-8"))
            archfile.elaborate_architecture(doc, horizon=horizon, burst=None)
        for path in scripts:
            archfile.parse_script((ROOT / path).read_text(encoding="utf-8"))


def run_commands(workload) -> list:
    from flowrefine import cli

    outputs = []
    for command in workload.commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 2
        outputs.append([code, buffer.getvalue()])
    return outputs


def main(argv) -> int:
    name, report_path, mode = argv
    sys.path.insert(0, str(ROOT / "src"))
    import flowrefine.cli  # noqa: F401  (the import is part of set-up)

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name]
    set_up(workload)
    report = {"setup_end": time.monotonic()}
    if mode != "setup":
        report["outputs"] = run_commands(workload)
        report["verdict_end"] = time.monotonic()
    if tracer is not None:
        report["trace"] = tracer.finish()
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
