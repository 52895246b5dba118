"""Command-line front end: evaluation, series dumps, radii, verification, plots.

Exit codes: 0 success, 1 verification/certification failure, 2 usage error.
All output is deterministic for fixed arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import radii, verify
from .errors import ParamRange, ParastarError
from .maps import TARGETS, target_map
from .oracle import SCHEMA, certify_sufficient_condition
from .series import PowerSeries, extremal_lower, extremal_upper, p0_coefficients


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    z = args.z
    params = _entry_params(args)
    value = target_map(args.target, **params)(z)
    payload = {"schema": SCHEMA, "target": args.target, "params": params,
               "z": {"re": z.real, "im": z.imag},
               "value": {"re": value.real, "im": value.imag}}
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


# the largest degree a command accepts: series builds --n by an O(n^2)
# recurrence, the certify reader builds max index + 1 coefficients, and
# certification costs degree x 4096 circle points
MAX_DEGREE = 4096

_SERIES = {"p0": p0_coefficients, "f0": extremal_lower, "g0": extremal_upper}


def _cmd_series(args) -> int:
    if args.n > MAX_DEGREE:
        raise ParamRange(f"--n {args.n} exceeds the maximum degree {MAX_DEGREE}")
    s = _SERIES[args.which](args.n)
    lines = [f"# schema: {SCHEMA}", "index,re,im"]
    lines += [f"{i},{float(c.real)!r},{float(c.imag)!r}" for i, c in enumerate(s.coeffs)]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _entry_params(args) -> dict:
    params = {}
    for name in ("alpha", "beta", "A", "B"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    return params


def _cmd_radius(args) -> int:
    entry = radii.get_entry(args.id, **_entry_params(args))
    root = radii.oracle_root(entry)
    payload = {"schema": SCHEMA, "id": entry.entry_id, "params": entry.params,
               "closed_form": entry.closed_form, "oracle_root": root,
               "gap": abs(entry.closed_form - root)}
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_radius_table(args) -> int:
    rows = []
    for entry in radii.default_entries():
        root = radii.oracle_root(entry)
        rows.append((entry.label, entry.closed_form, root, abs(entry.closed_form - root)))
    if args.format == "md":
        lines = ["| id | closed form | oracle root | gap |",
                 "| --- | --- | --- | --- |"]
        lines += [f"| {lab} | {cf:.12f} | {rt:.12f} | {gap:.3e} |"
                  for lab, cf, rt, gap in rows]
    else:
        lines = [f"# schema: {SCHEMA}", "id,closed_form,oracle_root,gap"]
        lines += [f"{lab},{cf!r},{rt!r},{gap!r}" for lab, cf, rt, gap in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    only = f"radius/{args.id}" if args.id else args.only
    reports = verify.run_all(only=only, tol=args.tol, samples=args.samples,
                             seed=args.seed)
    text = "".join(rep.to_json() + "\n" for rep in reports)
    _write(text, args.out)
    return 0 if reports and all(r.passed for r in reports) else 1


def _read_series_csv(path: str) -> PowerSeries:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("index"):
                continue
            try:
                idx, re_, im_ = line.split(",")
                i, value = int(idx), complex(float(re_), float(im_))
            except ValueError:
                raise ParamRange(f"{path} line {lineno}: {line!r} is not index,re,im") from None
            if i < 0:
                raise ParamRange(f"negative coefficient index {i} in {path}")
            if i > MAX_DEGREE:
                raise ParamRange(f"coefficient index {i} in {path} exceeds the maximum "
                                 f"degree {MAX_DEGREE}")
            if i in rows:
                raise ParamRange(f"duplicate coefficient index {i} in {path}")
            rows[i] = value
    if not rows:
        raise ParastarError(f"no coefficients found in {path}")
    coeffs = [rows.get(i, 0.0) for i in range(max(rows) + 1)]
    return PowerSeries(coeffs)


def _cmd_certify(args) -> int:
    f = _read_series_csv(args.series)
    rep = certify_sufficient_condition(f, args.t)
    _write(rep.to_json() + "\n", args.out)
    return 0 if rep.passed else 1


def _cmd_plot(args) -> int:
    # the one module only this command needs; the others stay eager so that
    # a tracer installed after ``from parastar import cli`` finds them loaded
    from . import plots

    if args.kind == "region":
        curves = plots.region_figure(disc_centers=args.discs, samples=args.samples)
    elif args.kind == "map-image":
        curves = plots.map_image_figure(args.target, r=args.r,
                                        samples=args.samples, **_entry_params(args))
    else:
        curves = plots.corollary_figure(args.entry, samples=args.samples)
    text = (plots.curves_to_svg(curves) if args.format == "svg"
            else plots.curves_to_csv(curves))
    _write(text, args.out)
    return 0


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="parastar",
                                description="parabolic-region radius toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a target map at a point")
    pe.add_argument("--target", required=True, choices=list(TARGETS))
    pe.add_argument("--z", required=True, type=complex, help="complex point, e.g. 0.3+0.1j")
    pe.add_argument("--alpha", type=float)
    pe.add_argument("--A", type=float)
    pe.add_argument("--B", type=float)
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_eval)

    ps = sub.add_parser("series", help="dump series coefficients as CSV")
    ps.add_argument("--which", choices=sorted(_SERIES), default="g0")
    ps.add_argument("--n", type=int, default=16)
    ps.add_argument("--out")
    ps.set_defaults(func=_cmd_series)

    pr = sub.add_parser("radius", help="closed form and oracle root of one entry")
    pr.add_argument("id")
    pr.add_argument("--alpha", type=float)
    pr.add_argument("--beta", type=float)
    pr.add_argument("--A", type=float)
    pr.add_argument("--B", type=float)
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_radius)

    pt = sub.add_parser("radius-table", help="print the whole catalog")
    pt.add_argument("--format", choices=("csv", "md"), default="csv")
    pt.add_argument("--out")
    pt.set_defaults(func=_cmd_radius_table)

    pv = sub.add_parser("verify", help="run verification checks as JSONL")
    scope = pv.add_mutually_exclusive_group(required=True)
    scope.add_argument("id", nargs="?",
                       help="radius id shortcut, same as --only radius/<id>")
    scope.add_argument("--all", action="store_true")
    scope.add_argument("--only", help="substring filter on check ids")
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.add_argument("--samples", type=int)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_verify)

    pc = sub.add_parser("certify", help="certify a CSV power series")
    pc.add_argument("--series", required=True, help="CSV file: index,re,im")
    pc.add_argument("--t", type=float, required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_certify)

    pp = sub.add_parser("plot", help="emit SVG or CSV figures")
    pp.add_argument("kind", choices=("region", "map-image", "corollary-figure"))
    pp.add_argument("--r", type=float, default=0.9)
    pp.add_argument("--target", default="left_parabola")
    pp.add_argument("--alpha", type=float)
    pp.add_argument("--A", type=float)
    pp.add_argument("--B", type=float)
    pp.add_argument("--discs", type=_float_list, default=[])
    pp.add_argument("--entry", default="r7_nephroid")
    pp.add_argument("--samples", type=int, default=256)
    pp.add_argument("--format", choices=("svg", "csv"), default="svg")
    pp.add_argument("--out")
    pp.set_defaults(func=_cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParastarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
