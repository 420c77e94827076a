"""``python -m repro.analysis`` — the repo's static-analysis gate.

Verifies every shipped dataflow graph (structure, shapes, execution
probe, budgets against the default :class:`~repro.core.TaurusConfig`),
runs the abstract-interpretation range/saturation analysis over each
(per-node waivers are reported), the shipped multi-app fabric bundle,
and the runtime-source
lints: fork-safety *and* the interprocedural lockset/protocol
concurrency analysis (``repro.analysis.concurrency``).  Exit status is
0 when no finding of warning severity or above remains, 1 otherwise —
which is exactly what CI's ``lint`` job checks.

Usage::

    python -m repro.analysis                  # the full shipped battery
    python -m repro.analysis --format=json    # machine-readable report
    python -m repro.analysis --format=sarif   # SARIF 2.1.0 (CI upload)
    python -m repro.analysis --list-checks    # the check catalog
    python -m repro.analysis -v               # also print info findings
    python -m repro.analysis --suppress ir-fixpoint-drift ...
    python -m repro.analysis path/to/file.py  # lint sources instead

The JSON document carries every finding (check id, severity, category,
message, graph/file provenance), the per-graph proven output intervals,
and a summary block with the exit code — CI uploads it as an artifact so
regressions diff as JSON, not log text.  The SARIF
document carries the same findings in SARIF 2.1.0 shape (one run, one
rule per catalog check, physical file/line locations) so
``github/codeql-action/upload-sarif`` annotates PRs inline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .concurrency import analyze_concurrency
from .diagnostics import CHECKS, Severity
from .fork_lint import lint_paths
from .ir_verify import verify_fabric, verify_graph
from .ranges import analyze_ranges


def _runtime_dir() -> Path:
    from .. import runtime

    return Path(runtime.__file__).resolve().parent


def _list_checks() -> None:
    by_category: dict[str, list] = {}
    for spec in CHECKS.values():
        by_category.setdefault(spec.category, []).append(spec)
    for category, specs in by_category.items():
        print(f"{category}:")
        for spec in specs:
            print(f"  {spec.check_id:26s} {spec.severity!s:8s} {spec.summary}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static verification of shipped dataflow programs "
        "and fork-safety lint of runtime sources.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="Python files/directories to fork-lint instead of the "
        "default shipped battery",
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CHECK-ID",
        help="drop findings with this check ID (repeatable)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print info-severity findings (never gate-relevant)",
    )
    parser.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the execution probe (structure/budget checks only)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format: human-readable text (default), one JSON "
        "document on stdout, or SARIF 2.1.0 for CI code-scanning upload "
        "(progress prints suppressed for both machine formats)",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="print the check catalog"
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        _list_checks()
        return 0

    unknown = [c for c in args.suppress if c not in CHECKS]
    if unknown:
        parser.error(f"unknown check ID(s): {', '.join(unknown)}")
    suppress = set(args.suppress)
    machine = args.format in ("json", "sarif")

    def progress(message: str) -> None:
        if not machine:
            print(message, flush=True)

    diags = []
    ranges: dict[str, dict[str, list[float]]] = {}
    if args.paths:
        diags += lint_paths(args.paths)
        diags += analyze_concurrency(args.paths)
        diags = [d for d in diags if d.check_id not in suppress]
    else:
        from ..core import TaurusConfig
        from .catalog import shipped_fabric, shipped_graphs

        config = TaurusConfig()
        progress("verifying shipped graphs ...")
        for graph in shipped_graphs():
            found = verify_graph(
                graph,
                config=config,
                probe=not args.no_probe,
                suppress=suppress,
            )
            report = analyze_ranges(graph, suppress=suppress)
            found += report.diagnostics
            ranges[graph.name] = {
                report.names[nid]: [_finite(iv.lo), _finite(iv.hi)]
                for nid, iv in report.intervals.items()
                if report.names[nid]
            }
            diags += found
            progress(f"  {graph.name}: {_tally(found)}")
        progress("verifying fabric bundle ...")
        diags += verify_fabric(shipped_fabric(), config=config, suppress=suppress)
        runtime = _runtime_dir()
        progress(f"fork-safety lint over {runtime} ...")
        diags += [
            d
            for d in lint_paths([runtime])
            if d.check_id not in suppress
        ]
        progress(f"concurrency analysis over {runtime} ...")
        diags += [
            d
            for d in analyze_concurrency([runtime])
            if d.check_id not in suppress
        ]

    gating = [d for d in diags if d.severity >= Severity.WARNING]
    exit_code = 1 if gating else 0
    if args.format == "json":
        print(json.dumps(_json_report(diags, ranges, exit_code)))
        return exit_code
    if args.format == "sarif":
        print(json.dumps(_sarif_report(diags)))
        return exit_code

    shown = diags if args.verbose else gating
    for d in shown:
        print(d.format())
    print(
        f"{len(diags)} finding(s): "
        f"{sum(d.severity == Severity.ERROR for d in diags)} error, "
        f"{sum(d.severity == Severity.WARNING for d in diags)} warning, "
        f"{sum(d.severity == Severity.INFO for d in diags)} info"
        + ("" if args.verbose or not diags else "  (use -v to see info)")
    )
    return exit_code


def _json_report(diags, ranges, exit_code) -> dict:
    """The machine-readable report (uploaded as a CI artifact)."""
    return {
        "findings": [
            {
                "check_id": d.check_id,
                "severity": str(d.severity),
                "category": (
                    CHECKS[d.check_id].category if d.check_id in CHECKS else None
                ),
                "message": d.message,
                "source": d.source,
                "node": d.node,
                "node_name": d.node_name,
                "line": d.line,
            }
            for d in diags
        ],
        "summary": {
            "total": len(diags),
            "error": sum(d.severity == Severity.ERROR for d in diags),
            "warning": sum(d.severity == Severity.WARNING for d in diags),
            "info": sum(d.severity == Severity.INFO for d in diags),
            "exit_code": exit_code,
        },
        "ranges": ranges,
    }


#: SARIF "level" per catalog severity (SARIF has no first-class info tier
#: for gate purposes; "note" keeps advisory findings out of PR blocking).
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _sarif_report(diags) -> dict:
    """One SARIF 2.1.0 run for ``github/codeql-action/upload-sarif``.

    Every catalog check ships as a rule (so suppressed/clean checks still
    appear in the code-scanning config); findings carry physical file/line
    locations when they anchor to source, and fall back to the logical
    graph name otherwise.
    """
    rules = [
        {
            "id": spec.check_id,
            "shortDescription": {"text": spec.summary},
            "properties": {"category": spec.category},
            "defaultConfiguration": {"level": _SARIF_LEVELS[spec.severity]},
        }
        for spec in CHECKS.values()
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = []
    for d in diags:
        result = {
            "ruleId": d.check_id,
            "level": _SARIF_LEVELS[d.severity],
            "message": {"text": d.message},
        }
        if d.check_id in rule_index:
            result["ruleIndex"] = rule_index[d.check_id]
        if d.source.endswith(".py"):
            region = {"startLine": d.line} if d.line else {}
            result["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _relative_uri(d.source)},
                        **({"region": region} if region else {}),
                    }
                }
            ]
        else:
            result["locations"] = [
                {
                    "logicalLocations": [
                        {"fullyQualifiedName": d.source, "kind": "module"}
                    ]
                }
            ]
        results.append(result)
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": "https://github.com/",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def _relative_uri(source: str) -> str:
    """Repo-relative POSIX path when possible (SARIF wants URIs)."""
    path = Path(source)
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _finite(value: float) -> float | None:
    """Unbounded interval ends serialize as null (JSON has no Infinity)."""
    import math

    return value if math.isfinite(value) else None


def _tally(diags) -> str:
    if not diags:
        return "clean"
    worst = max(d.severity for d in diags)
    return f"{len(diags)} finding(s), worst {worst}"


if __name__ == "__main__":
    sys.exit(main())
