"""Command-line front end: generate families, color/partition them, verify
every inequality the bounds promise, and export DIMACS/SVG/CSV.

Exit codes: 0 all checks pass, 2 a bound or properness check failed, 3 a
solver cap was exceeded (partial report), 4 invalid input or usage, 5 an
internal fault; `main` alone maps exception types to them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from functools import cached_property

import numpy as np

from .constructions import grid_family, pentagon_disjoint_family, pentagon_family, random_family
from .covering import (
    DEFAULT_SAMPLES,
    CoveringCertificate,
    check_samples,
    difference_certificate,
    difference_cover_ceiling,
)
from .families import Family, dumps_family, family_digest, load_family, read_json
from .geometry import ConvexBody, GeometryError, _shape
from .graph_core import (
    SolveResult,
    SolverCaps,
    build_graph,
    chromatic_number,
    clique_cover_number,
    compute_invariants,
    max_clique,
    max_independent_set,
    to_dimacs,
    verify_clique_partition,
    verify_coloring,
)
from .homothet_coloring import clique_partition_homothets, color_homothets, symmetrized_family
from .reports import ColoringReport, InequalityCheck, PartitionReport, RunReport, canonical_json
from .translate_coloring import TranslatePipeline, translate_pipeline

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CAPPED = 3
EXIT_INPUT = 4
EXIT_FAULT = 5

CAPS_ENV = "CONVEX_CHROMA_CAPS"


def _parse_caps(text: str | None) -> SolverCaps:
    caps = SolverCaps()
    if not text:
        return caps
    values = {"omega": caps.omega, "chi": caps.chi}
    for part in text.split(","):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in values:
            raise ValueError(f"unknown cap {key!r} (expected omega/chi)")
        values[key] = int(val)
    return SolverCaps(omega=values["omega"], chi=values["chi"])


def _resolve_caps(arg: str | None) -> SolverCaps:
    """--caps when given, else the CONVEX_CHROMA_CAPS environment variable."""
    return _parse_caps(arg if arg is not None else os.environ.get(CAPS_ENV))


def _named_body(name: str, sides: str | None = None) -> ConvexBody:
    if name == "square":
        return ConvexBody.unit_square()
    if name == "disk":
        return ConvexBody.disk()
    if name == "triangle":
        return ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])
    if name == "box":
        if not sides:
            raise ValueError("--sides is required for --body box")
        return ConvexBody.box([float(s) for s in sides.split(",")])
    raise ValueError(f"unknown body {name!r} (square, disk, triangle, box)")


def _emit(text: str, out_path: str | None) -> None:
    """Write a command's output to --out, or to stdout without it."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(name: str, lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(name=name, lhs=float(lhs), rhs=float(rhs), passed=bool(lhs <= rhs))


def _flag(name: str, ok: bool) -> InequalityCheck:
    return InequalityCheck(name=name, lhs=0.0 if ok else 1.0, rhs=0.0, passed=bool(ok))


def _exact(res: SolveResult) -> int | None:
    return None if res.capped else res.value


def cmd_generate(args) -> int:
    if args.construction == "pentagon":
        family = pentagon_family(args.k)
    elif args.construction == "pentagon-disjoint":
        family = pentagon_disjoint_family(args.k)
    elif args.construction == "grid":
        family = grid_family(_named_body(args.body, args.sides), args.m)
    else:
        lo, hi = (float(v) for v in args.window.split(","))
        slo, shi = (float(v) for v in args.scales.split(","))
        family = random_family(
            _named_body(args.body, args.sides), args.count, (lo, hi),
            scale_range=(slo, shi), seed=args.seed,
        )
    _emit(dumps_family(family), args.out)
    print(f"generated {len(family)} members ({args.construction})", file=sys.stderr)
    return EXIT_OK


class _Run:
    """What one color, partition or verify command derives from its input.

    The family, its digest and its graph are built on construction; the
    oracles, the certificates and the translate pipeline are computed on
    first use and kept, so every consumer in the command shares one copy.
    """

    def __init__(self, args):
        check_samples(args.samples)
        self.caps = _resolve_caps(args.caps)
        self.family = load_family(args.input)
        self.digest = family_digest(self.family)
        self.graph = build_graph(self.family)
        self.seed = args.seed
        self.samples = args.samples
        self.out = args.out
        self.start = time.perf_counter()

    @cached_property
    def omega(self) -> SolveResult:
        return max_clique(self.graph, cap=self.caps.omega)

    @cached_property
    def nu(self) -> SolveResult:
        return max_independent_set(self.graph, cap=self.caps.omega)

    @cached_property
    def translates(self) -> TranslatePipeline:
        return translate_pipeline(self.family, self.graph, seed=self.seed)

    @cached_property
    def homothets(self) -> tuple[Family, CoveringCertificate]:
        return self.family, difference_certificate(self.family.body, self.family.body,
                                                   self.samples)

    @cached_property
    def symmetrized(self) -> tuple[Family, CoveringCertificate]:
        return symmetrized_family(self.family, self.samples)

    def coloring(self, method: str) -> tuple[ColoringReport, list[InequalityCheck]]:
        """One method's coloring and its checks against omega."""
        omega = _exact(self.omega)
        if method == "translates":
            rep = self.translates.coloring()
        else:
            family, cert = self.symmetrized if method == "symmetrized" else self.homothets
            rep = color_homothets(family, cert, omega=omega, graph=self.graph)
            if method == "symmetrized":
                rep = replace(rep, method="corollary1", seed=self.seed)
        checks = [_flag(f"coloring[{method}]_proper", verify_coloring(self.graph, list(rep.colors)))]
        if omega is not None and len(self.family) > 0:
            bound = rep.params["t_bound"] * omega if method == "translates" else rep.bound_value
            checks.append(_check(f"colors[{method}]<=bound", rep.colors_used, bound))
            checks.append(_check(f"omega<=colors[{method}]", omega, rep.colors_used))
        return rep, checks

    def partition(self, method: str) -> tuple[PartitionReport, list[InequalityCheck]]:
        """One method's clique partition and its checks against nu."""
        nu = _exact(self.nu)
        if method == "translates":
            rep = self.translates.partition()
        else:
            family, cert = self.symmetrized if method == "symmetrized" else self.homothets
            rep = clique_partition_homothets(family, cert, nu=nu, graph=self.graph)
        checks = [_flag(f"partition[{method}]_cliques",
                        verify_clique_partition(self.graph, list(rep.classes_assign)))]
        if nu is not None and len(self.family) > 0:
            bound = rep.params["t_bound"] * nu if method == "translates" else rep.bound_value
            checks.append(_check(f"classes[{method}]<=bound", rep.classes_used, bound))
            checks.append(_check(f"nu<=classes[{method}]", nu, rep.classes_used))
        return rep, checks

    def finish(self, command: str, outputs: dict, oracles: dict,
               checks: list[InequalityCheck], capped: bool) -> int:
        """Write the command's report and return its exit code."""
        wall = (time.perf_counter() - self.start) * 1000
        report = RunReport(
            command=command, input_digest=self.digest, seed=self.seed, outputs=outputs,
            oracles=oracles, checks=tuple(checks), capped=capped, wall_time_ms=wall,
        )
        _emit(canonical_json(report.to_json()), self.out)
        failed = [c.name for c in checks if not c.passed]
        status = "FAIL " + ",".join(failed) if failed else ("CAPPED" if capped else "PASS")
        print(f"{command}: {status} ({len(checks)} checks, wall {wall:.1f} ms)", file=sys.stderr)
        if failed:
            return EXIT_VIOLATION
        return EXIT_CAPPED if capped else EXIT_OK


def _kappa_oracles(run: _Run, rep) -> dict:
    if rep.kappa_ub is None:
        return {}
    return {"kappa_ub": rep.kappa_ub,
            "kappa_ceiling_ref": difference_cover_ceiling(run.family.body.dimension)}


def cmd_color(args) -> int:
    run = _Run(args)
    rep, checks = run.coloring(args.method)
    oracles = {"omega": _exact(run.omega), "omega_capped": run.omega.capped,
               **_kappa_oracles(run, rep)}
    return run.finish(f"color --method {args.method}", {"coloring": rep},
                      oracles, checks, run.omega.capped)


def cmd_partition(args) -> int:
    run = _Run(args)
    rep, checks = run.partition(args.method)
    oracles = {"nu": _exact(run.nu), "nu_capped": run.nu.capped, **_kappa_oracles(run, rep)}
    return run.finish(f"partition --method {args.method}", {"partition": rep},
                      oracles, checks, run.nu.capped)


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_claims(path: str) -> dict[str, int]:
    """The omega/nu/chi/theta claims of a --expect file, a JSON object."""
    claims = read_json(path)
    if not isinstance(claims, dict):
        raise ValueError("claims file must hold a JSON object")
    known = ("omega", "nu", "chi", "theta")
    unknown = sorted(set(claims) - set(known))
    if unknown:
        raise ValueError(f"unknown claim keys {unknown} (expected {', '.join(known)})")
    claims = {key: claims[key] for key in known if key in claims}
    if not all(_is_int(value) for value in claims.values()):
        raise ValueError(f"claimed invariants must be integers, got {claims}")
    return claims


def cmd_verify(args) -> int:
    claims = _load_claims(args.expect) if args.expect else {}
    run = _Run(args)
    family, g = run.family, run.graph
    chi_res = chromatic_number(g, cap=run.caps.chi, clique=run.omega)
    theta_res = clique_cover_number(g, cap=run.caps.chi, independent=run.nu)
    results = {"omega": run.omega, "nu": run.nu, "chi": chi_res, "theta": theta_res}
    oracles: dict = {key: _exact(res) for key, res in results.items()}
    capped = any(res.capped for res in results.values())
    omega, nu, chi, theta = (oracles[key] for key in results)
    oracles.update({"members": len(family), "edges": int(g.matrix.sum()) // 2})

    checks: list[InequalityCheck] = []
    if len(family) > 0:
        if omega is not None and chi is not None:
            checks.append(_check("omega<=chi", omega, chi))
        if nu is not None and theta is not None:
            checks.append(_check("nu<=theta", nu, theta))

    outputs: dict = {}
    methods = ["translates", "symmetrized"] if family.is_translate_family else ["homothets"]
    for method in methods if len(family) else []:
        crep, cchecks = run.coloring(method)
        outputs[f"coloring_{method}"] = crep
        checks.extend(cchecks)
        if chi is not None:
            checks.append(_check(f"chi<=colors[{method}]", chi, crep.colors_used))
        prep, pchecks = run.partition(method)
        outputs[f"partition_{method}"] = prep
        checks.extend(pchecks)
        if theta is not None:
            checks.append(_check(f"theta<=classes[{method}]", theta, prep.classes_used))
            if prep.piercing_points_used is not None:
                checks.append(
                    _check(f"theta<=piercing[{method}]", theta, prep.piercing_points_used)
                )

    for key, claimed in claims.items():
        ok = claimed == oracles[key]
        checks.append(_flag(f"claim[{key}={claimed}]", ok))
        if not ok:
            print(f"claim mismatch: {key} claimed {claimed}, computed {oracles[key]}",
                  file=sys.stderr)
    return run.finish("verify", outputs, oracles, checks, capped)


_SVG_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]


def _extract_colors(obj) -> list[int]:
    """The integer colors of a list, a coloring report or a run report."""
    if isinstance(obj, dict):
        outputs = obj.get("outputs")
        reports = [obj, *outputs.values()] if isinstance(outputs, dict) else [obj]
        obj = next((r["colors"] for r in reports if isinstance(r, dict) and "colors" in r), None)
    if isinstance(obj, list) and all(_is_int(c) for c in obj):
        return obj
    raise ValueError("coloring file carries no list of integer per-member colors")


def family_svg(family: Family, colors: list[int] | None = None) -> str:
    """Write-only SVG rendering of a 2D family, fill per color class."""
    if family.body.dimension != 2:
        raise GeometryError("SVG export supports 2D families only")
    shape = _shape(family.body)
    shapes = []
    lo = np.full(2, np.inf)
    hi = np.full(2, -np.inf)
    for i, (c, lam) in enumerate(zip(family.centers(), family.scales())):
        fill = _SVG_PALETTE[colors[i] % len(_SVG_PALETTE)] if colors is not None else "none"
        shapes.append(shape.svg_element(
            c, lam, f'fill="{fill}" fill-opacity="0.55" stroke="black" stroke-width="0.02"'))
        box_lo, box_hi = shape.box(lam)
        lo, hi = np.minimum(lo, c + box_lo), np.maximum(hi, c + box_hi)
    if not len(shapes):
        lo, hi = np.zeros(2), np.ones(2)
    pad = 0.05 * float((hi - lo).max() or 1.0)
    lo -= pad
    hi += pad
    w, h = hi - lo
    body_svg = "\n".join(shapes)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo[0]:.6f} {-hi[1]:.6f} '
        f'{w:.6f} {h:.6f}" width="640" height="{640 * h / w:.0f}">\n'
        f'<g transform="scale(1,-1)">\n{body_svg}\n</g>\n</svg>\n'
    )


def family_csv(family: Family, caps: SolverCaps) -> str:
    g = build_graph(family)
    inv = compute_invariants(g, caps)
    rows = ["invariant,value,capped,lower,upper"]
    for name in ("omega", "alpha", "chi", "theta"):
        res = getattr(inv, name)
        rows.append(
            f"{name},{'' if res.value is None else res.value},{res.capped},"
            f"{'' if res.lower is None else res.lower},{'' if res.upper is None else res.upper}"
        )
    rows.append(f"members,{len(family)},False,,")
    rows.append(f"edges,{int(g.matrix.sum()) // 2},False,,")
    return "\n".join(rows) + "\n"


def cmd_export(args) -> int:
    family = load_family(args.input)
    if args.format == "dimacs":
        text = to_dimacs(build_graph(family))
    elif args.format == "csv":
        text = family_csv(family, _resolve_caps(args.caps))
    else:
        colors = None
        if args.coloring:
            colors = _extract_colors(read_json(args.coloring))
            if len(colors) != len(family):
                raise ValueError("coloring length does not match the family")
        text = family_svg(family, colors)
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convex-chroma",
        description="coloring and clique partitions of translate/homothet intersection graphs",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("generate", help="generate a family file")
    gen.add_argument("construction", choices=["pentagon", "pentagon-disjoint", "grid", "random"])
    gen.add_argument("--body", default="square")
    gen.add_argument("--sides", default=None, help="comma-separated box sides")
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--m", type=int, default=1)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--window", default="0,5", help="lo,hi window per axis")
    gen.add_argument("--scales", default="1,1", help="lo,hi scale range")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    family = argparse.ArgumentParser(add_help=False)  # flags of the commands reading a family
    family.add_argument("--in", dest="input", required=True)
    family.add_argument("--caps", default=None)
    family.add_argument("--out", default=None)
    run = argparse.ArgumentParser(add_help=False, parents=[family])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    for name, func in (("color", cmd_color), ("partition", cmd_partition)):
        cp = sub.add_parser(name, parents=[run], help=f"{name} a family and check the bound")
        cp.add_argument("--method", choices=["translates", "homothets", "symmetrized"],
                        default="translates")
        cp.set_defaults(func=func)

    ver = sub.add_parser("verify", parents=[run],
                         help="run all applicable algorithms and oracles")
    ver.add_argument("--expect", default=None, help="JSON of claimed invariants to check")
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("export", parents=[family], help="export DIMACS/SVG/CSV")
    exp.add_argument("--format", choices=["dimacs", "svg", "csv"], required=True)
    exp.add_argument("--coloring", default=None, help="report or color-list JSON for SVG fills")
    exp.set_defaults(func=cmd_export)
    return parser


_PARSER = build_parser()  # parse_args keeps no state between calls


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"error: internal fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
