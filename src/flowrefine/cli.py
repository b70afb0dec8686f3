"""Command line front end.

Subcommands:

* ``validate`` checks an architecture's consistency conditions.
* ``simulate`` enumerates the complete runs an architecture admits for one
  environment.
* ``check-refine`` decides bounded behavior inclusion between two
  architectures with the same interface.
* ``apply-script`` replays a refinement script against an architecture and
  writes the resulting architecture back out in canonical form.
* ``case-study`` replays the built-in delta-encoding pipeline refinement,
  printed as ``apply-script`` prints a script, and closes with the
  ``check-refine`` verdict of the final system against the original.

Exit codes: 0 when the requested property holds, 1 when a premise or check
fails, 2 for malformed input, 3 for an internal error (a bug, reported on
one line).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .archfile import (
    elaborate_architecture,
    elaborate_step,
    parse_architecture,
    parse_env,
    parse_script,
    render_architecture,
)
from .behaviors import validate_transducer
from .case_study import build_original_system, case_study_steps, tiny_profile
from .errors import FlowError, ParseError
from .reporting import as_json, render_stream_tuple
from .rules import apply_script, apply_step, check_system_refinement
from .system import system_runs, validate_system


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(args, lines, data, path) -> None:
    """Write a command's report to the file ``path``, or to stdout when it
    is ``None``: ``data``, which may hold reports, as JSON under ``--format
    json``, else ``lines``."""
    text = (json.dumps(data, indent=2, sort_keys=True, default=as_json)
            if args.format == "json" else "\n".join(lines)) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_architecture(path: str, horizon, burst):
    doc = parse_architecture(_read(path))
    return elaborate_architecture(doc, horizon=horizon, burst=burst)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    system = _load_architecture(args.architecture, args.horizon, args.burst)
    reports = [validate_system(system)]
    if args.machines:
        for comp in system.components:
            reports.append(validate_transducer(comp.machine, system.bounds))
    ok = all(r.ok for r in reports)
    lines = [r.render() for r in reports]
    lines.append("result: %s" % ("consistent" if ok else "INCONSISTENT"))
    _write(args, lines, {"ok": ok, "reports": reports}, args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    system = _load_architecture(args.architecture, args.horizon, args.burst)
    env = parse_env(_read(args.env))
    runs = sorted(system_runs(system, env), key=lambda r: r.key())
    lines = ["runs %d" % len(runs)]
    for i, run in enumerate(runs, 1):
        lines += ["run %d" % i, render_stream_tuple(run, "  ")]
    _write(args, lines, {"count": len(runs), "runs": runs}, args.output)
    return 0


# ---------------------------------------------------------------------------
# check-refine
# ---------------------------------------------------------------------------


def _refinement_outcome(ok: bool, cex) -> tuple:
    """A verdict of :func:`check_system_refinement` as text lines and as
    JSON: ``refines: yes|NO``, then the counterexample if there is one."""
    lines = ["refines: %s" % ("yes" if ok else "NO")]
    data = {"refines": ok}
    if cex is not None:
        lines.append(cex.render())
        data["counterexample"] = cex
    return lines, data


def cmd_check_refine(args) -> int:
    abstract = _load_architecture(args.abstract, args.horizon, args.burst)
    concrete = _load_architecture(args.concrete, args.horizon, args.burst)
    lines, data = _refinement_outcome(*check_system_refinement(abstract, concrete))
    _write(args, lines, data, args.output)
    return 0 if data["refines"] else 1


# ---------------------------------------------------------------------------
# apply-script
# ---------------------------------------------------------------------------


def _script_step(number: int, node):
    """Script step ``number``, elaborated against the bounds of the system
    it applies to, which rename and expand change.  An error that names no
    line is raised again naming the step's line and number."""

    def step(system):
        try:
            return apply_step(system, elaborate_step(node, system.bounds))
        except FlowError as exc:
            if getattr(exc, "line", None) is not None:
                raise
            raise ParseError("step %d: %s" % (number, exc), line=node.line) from exc

    return step


def _script_outcome(result, rules, tags) -> tuple:
    """A replayed script as text lines and as JSON steps.  Each step prints
    ``step N (TAG): RULE ok|FAILED`` and its report; ``script: ok|FAILED``
    closes the text.  ``tags`` gives each step's TAG and the JSON field
    that carries it, as ``(text, key, value)``."""
    lines = []
    steps = []
    for number, (rule, (text, key, value), report) in enumerate(
            zip(rules, tags, result.reports), 1):
        lines.append("step %d (%s): %s %s" % (number, text, rule,
                                              "ok" if report.ok else "FAILED"))
        lines.append(report.render("  "))
        steps.append({"step": number, key: value, "rule": rule, "report": report})
    lines.append("script: %s" % ("ok" if result.ok else "FAILED"))
    return lines, steps


def cmd_apply_script(args) -> int:
    system = _load_architecture(args.architecture, args.horizon, args.burst)
    nodes = parse_script(_read(args.script))
    result = apply_script(system, [_script_step(k, node) for k, node in enumerate(nodes, 1)])
    lines, steps = _script_outcome(result, [node.form for node in nodes],
                                   [("line %d" % n.line, "line", n.line) for n in nodes])
    data = {"ok": result.ok, "steps": steps}
    if result.ok:
        # --output takes the resulting architecture; the report goes to stdout.
        data["architecture"] = rendered = render_architecture(result.system)
        if args.output:
            Path(args.output).write_text(rendered, encoding="utf-8")
        else:
            lines += ["", rendered.rstrip("\n")]
    _write(args, lines, data, None)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# case-study
# ---------------------------------------------------------------------------


def cmd_case_study(args) -> int:
    keys = tuple(k for k in args.keys.split(",") if k)
    if not keys:
        raise ParseError("at least one key is required")
    bounds = tiny_profile(
        keys=keys, modulus=args.modulus,
        horizon=4 if args.horizon is None else args.horizon,
        burst=1 if args.burst is None else args.burst,
    )
    original = build_original_system(bounds, modulus=args.modulus)
    labels, steps = zip(*case_study_steps(bounds, modulus=args.modulus,
                                          broken_dec=args.broken_dec))
    result = apply_script(original, steps)
    lines, json_steps = _script_outcome(result, [step.rule for step in steps],
                                        [(label, "label", label) for label in labels])
    data = {"ok": result.ok, "steps": json_steps}
    if result.ok and not args.skip_final:
        verdict_lines, verdict = _refinement_outcome(
            *check_system_refinement(original, result.system))
        lines += verdict_lines
        data.update(verdict, ok=verdict["refines"])
    _write(args, lines, data, args.output)
    return 0 if data["ok"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--horizon", type=int, default=None,
                     help="override the declared horizon")
    sub.add_argument("--burst", type=int, default=None,
                     help="override the declared per-interval burst")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None, metavar="FILE",
                     help="write the result here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrefine",
        description="Bounded refinement checking for dataflow architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check architecture consistency")
    p.add_argument("architecture")
    p.add_argument("--machines", action="store_true",
                   help="also validate every component machine")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="enumerate runs for one environment")
    p.add_argument("architecture")
    p.add_argument("--env", required=True, metavar="FILE",
                   help="environment stream file")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-refine",
                       help="bounded behavior inclusion of concrete in abstract")
    p.add_argument("abstract")
    p.add_argument("concrete")
    _add_common(p)
    p.set_defaults(func=cmd_check_refine)

    p = sub.add_parser("apply-script", help="replay a refinement script")
    p.add_argument("architecture")
    p.add_argument("script")
    _add_common(p)
    p.set_defaults(func=cmd_apply_script)

    p = sub.add_parser("case-study", help="run the delta-encoding refinement")
    p.add_argument("--modulus", type=int, default=3)
    p.add_argument("--keys", default="a", help="comma separated store keys")
    p.add_argument("--broken-dec", action="store_true",
                   help="install a decoder that forwards codes undecoded")
    p.add_argument("--skip-final", action="store_true",
                   help="skip the closing behavior-inclusion check")
    _add_common(p)
    p.set_defaults(func=cmd_case_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("horizon", "burst", "modulus"):
            value = getattr(args, option, None)
            if value is not None and value < 1:
                raise ParseError("--%s must be at least 1, got %d" % (option, value))
        return args.func(args)
    except (FlowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # A bug, not a verdict: never exit 1, which means "the property fails".
        message = " ".join(("%s: %s" % (type(exc).__name__, exc)).split())
        print("internal error: %s" % message, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
