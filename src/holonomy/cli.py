"""Command-line surface: enumeration, statistics, checks, and exports.

Exit codes: 0 ok, 1 usage error, 2 precondition violation, 3 inconclusive
oracle result under --strict. All outputs are deterministic for a fixed
config: floats printed at 12 significant digits, JSON keys sorted, and the
config digest embedded in every report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .config import RunConfig, config_from_sources
from .fields import (ScopeError, format_element, ideal_of_element, make_field, parse_element,
                     sign_data, square_divisor_splits)
from .intlinalg import hnf
from .measure import TrigFunction
from .orders import LatticeSpec, OrderCache, build_order, compute_arithmetic
from .reports import (
    ComparisonReport,
    TestFunctionSpec,
    equi_report_function,
    equi_report_rectangle,
    geometric_side,
    pgt_report,
    report_to_json,
    sign_invariance_report,
    units_report,
)
from .spectrum import CSV_COLUMNS, GeodesicTable, classify_elliptic_trace, enumerate_elliptic_traces, length_spectrum


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def table_to_csv(table: GeodesicTable) -> str:
    lines = [f"# m={table.field_m} x={_fmt(table.x_max)}"]
    lines.append(",".join(CSV_COLUMNS))
    for r in table.rows:
        d = r.row()
        lines.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


class CsvRow:
    """Row of a loaded geodesic table (statistics view of the CSV)."""

    __slots__ = ("t", "length", "folded_angle", "q", "primitive_length",
                 "multiplicity", "certified")

    def __init__(self, t, length, folded_angle, q, primitive_length, multiplicity, certified):
        self.t = t
        self.length = length
        self.folded_angle = folded_angle
        self.q = q
        self.primitive_length = primitive_length
        self.multiplicity = multiplicity
        self.certified = certified


# the CSV_COLUMNS that table_from_csv reads
_CSV_READ = ("t_a", "t_b", "length", "folded_angle", "q", "primitive_length",
             "multiplicity_lo", "multiplicity_hi", "certified")


def table_from_csv(text: str) -> GeodesicTable:
    from .orders import Multiplicity

    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = {}
    if lines and lines[0].startswith("#"):
        for part in lines[0][1:].split():
            k, _, v = part.partition("=")
            meta[k] = v
        lines = lines[1:]
    if not lines:
        raise ValueError("not a geodesic table CSV: no header line")
    header = lines[0].split(",")
    idx = {c: i for i, c in enumerate(header)}
    missing = [c for c in _CSV_READ if c not in idx]
    if missing:
        raise ValueError(f"not a geodesic table CSV: header lacks {', '.join(missing)}")
    rows = []
    for n, ln in enumerate(lines[1:], start=1):
        vals = ln.split(",")
        if len(vals) != len(header):
            raise ValueError(f"geodesic table CSV data row {n} has {len(vals)} fields, "
                             f"its header {len(header)}")
        mult = Multiplicity(Fraction(vals[idx["multiplicity_lo"]]),
                            Fraction(vals[idx["multiplicity_hi"]]),
                            vals[idx["certified"]] == "true")
        rows.append(CsvRow(
            (vals[idx["t_a"]], vals[idx["t_b"]]),
            float(vals[idx["length"]]),
            float(vals[idx["folded_angle"]]),
            int(vals[idx["q"]]),
            float(vals[idx["primitive_length"]]),
            mult,
            vals[idx["certified"]] == "true",
        ))
    m = int(meta.get("m", "0"))
    x = float(meta.get("x", max((r.length for r in rows), default=0.0)))
    return GeodesicTable(m, x, rows, [])


def emit_report(report: ComparisonReport, cfg: RunConfig, out=None) -> None:
    report.metadata["config_digest"] = cfg.digest()
    if cfg.output_format == "json":
        text = report_to_json(report, cfg.digest())
    else:
        text = report.to_text()
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_testfn(s: str) -> TestFunctionSpec:
    name, _, rest = s.partition(":")
    params = tuple(float(p) for p in rest.split(",")) if rest else ()
    return TestFunctionSpec(name, params)


def _parse_hnf(text: str) -> tuple:
    """A 2x2 integer matrix [[p,q],[0,r]] in Hermite normal form, as rows."""
    try:
        rows = json.loads(text)
        if ([len(r) for r in rows] == [2, 2] and all(type(c) is int for r in rows for c in r)
                and hnf(rows) == rows):
            return tuple(tuple(r) for r in rows)
    except (ValueError, TypeError):
        pass
    raise ValueError(f"--d must be a 2x2 integer HNF [[p,q],[0,r]], got {text!r}")


def _spec_for(field) -> LatticeSpec:
    return LatticeSpec.hilbert(field)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="holonomy",
                                 description="closed-geodesic and holonomy statistics laboratory")
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--cache", help="order cache path (JSON lines)")
    ap.add_argument("--format", choices=("csv", "json", "text"), default=None)
    ap.add_argument("--strict", action="store_true",
                    help="exit 3 on inconclusive oracle results")
    sub = ap.add_subparsers(dest="cmd")

    p_field = sub.add_parser("field", help="base field info")
    sub_field = p_field.add_subparsers(dest="sub")
    pf = sub_field.add_parser("info")
    pf.add_argument("--m", type=int, required=True)

    p_enum = sub.add_parser("enumerate", help="length spectrum to CSV")
    p_enum.add_argument("--m", type=int, required=True)
    p_enum.add_argument("--x", type=float, required=True)
    p_enum.add_argument("--out", default=None)

    p_stats = sub.add_parser("stats", help="statistics reports")
    sub_stats = p_stats.add_subparsers(dest="sub")
    ps_pgt = sub_stats.add_parser("pgt")
    ps_pgt.add_argument("--in", dest="infile", required=True)
    ps_pgt.add_argument("--grid", required=True, help="comma-separated cutoffs")
    ps_pgt.add_argument("--all-classes", action="store_true")
    ps_pgt.add_argument("--out", default=None)
    ps_equi = sub_stats.add_parser("equi")
    ps_equi.add_argument("--in", dest="infile", required=True)
    ps_equi.add_argument("--fm", type=int, default=None, help="character index k")
    ps_equi.add_argument("--rect", default=None, help="lo:hi")
    ps_equi.add_argument("--N", type=int, default=16)
    ps_equi.add_argument("--grid", default=None)
    ps_equi.add_argument("--symmetrize", action="store_true")
    ps_equi.add_argument("--out", default=None)
    ps_units = sub_stats.add_parser("units")
    ps_units.add_argument("--m", type=int, required=True)
    ps_units.add_argument("--T", type=float, required=True)
    ps_units.add_argument("--fm", type=int, default=None)
    ps_units.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="field criteria checks")
    sub_check = p_check.add_subparsers(dest="sub")
    pc = sub_check.add_parser("narrow")
    pc.add_argument("--m", type=int, required=True)

    p_trace = sub.add_parser("trace", help="trace formula evaluation")
    sub_trace = p_trace.add_subparsers(dest="sub")
    pt = sub_trace.add_parser("geometric")
    pt.add_argument("--in", dest="infile", required=True)
    pt.add_argument("--weight", type=int, required=True)
    pt.add_argument("--vol", type=float, required=True)
    pt.add_argument("--testfn", required=True, help="NAME:param1,param2")
    pt.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="exact arithmetic oracles")
    sub_oracle = p_oracle.add_subparsers(dest="sub")
    po = sub_oracle.add_parser("class-number")
    po.add_argument("--m", type=int, required=True)
    po.add_argument("--D", required=True, help="element a+b*w")
    po.add_argument("--d", default=None, help="HNF [[p,q],[0,r]] (default: (D))")

    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return 1
    if not args.cmd:
        ap.print_help()
        return 1
    try:
        cfg = config_from_sources(args.config, cache_path=args.cache,
                                  output_format=args.format, strict=args.strict or None)
        return _dispatch(args, cfg)
    except (ValueError, ScopeError, OSError) as e:
        sys.stderr.write(f"precondition error: {e}\n")
        return 2


def _dispatch(args, cfg: RunConfig) -> int:
    cache = OrderCache(cfg.cache_path)
    if args.cmd == "field" and args.sub == "info":
        K = make_field(args.m)
        sd = sign_data(K)
        info = {
            "m": K.m,
            "degree": K.degree,
            "omega": K.omega_text(),
            "disc": K.disc,
            "eps": format_element(K.eps),
            "eps_norm": K.eps_norm,
            "h_K": K.h_K,
            "narrow_equals_class": sd.narrow_equals_class,
            "config_digest": cfg.digest(),
        }
        _write(json.dumps(info, sort_keys=True, indent=1) + "\n", None)
        return 0

    if args.cmd == "enumerate":
        K = make_field(args.m)
        if K.h_K != 1:
            raise ScopeError("enumeration requires h_K = 1")
        table = length_spectrum(K, args.x, _spec_for(K), cache)
        _write(table_to_csv(table), args.out)
        if cfg.strict and any(not r.certified for r in table.rows):
            return 3
        return 0

    if args.cmd == "stats" and args.sub == "pgt":
        with open(args.infile) as fh:
            table = table_from_csv(fh.read())
        grid = [float(g) for g in args.grid.split(",")]
        rep = pgt_report(table, grid, count_all=args.all_classes)
        emit_report(rep, cfg, args.out)
        if cfg.strict and rep.metadata.get("uncertified_rows", "none") != "none":
            return 3
        return 0

    if args.cmd == "stats" and args.sub == "equi":
        with open(args.infile) as fh:
            table = table_from_csv(fh.read())
        grid = [float(g) for g in args.grid.split(",")] if args.grid else [table.x_max]
        if args.fm is not None:
            f = TrigFunction.from_char(args.fm)
            rep = equi_report_function(table, f, grid)
        elif args.rect is not None:
            lo, _, hi = args.rect.partition(":")
            rep = equi_report_rectangle(table, (float(lo), float(hi)), args.N, grid,
                                        symmetrize=args.symmetrize)
        else:
            raise ValueError("need --fm or --rect")
        emit_report(rep, cfg, args.out)
        return 0

    if args.cmd == "stats" and args.sub == "units":
        if not 0 < args.T < math.inf:
            raise ValueError(f"--T must be positive and finite, got {args.T}")
        K = make_field(args.m)
        x = 2 * math.log(args.T)
        table = length_spectrum(K, max(x, 1.0), _spec_for(K), cache, with_elliptic=False)
        f = TrigFunction.from_char(args.fm) if args.fm is not None else TrigFunction.constant(1)
        rep = units_report(table, args.T, f)
        emit_report(rep, cfg, args.out)
        return 0

    if args.cmd == "check" and args.sub == "narrow":
        K = make_field(args.m)
        sd = sign_data(K)
        rep = sign_invariance_report(K, sd)
        rep["config_digest"] = cfg.digest()
        _write(f"h_K == h_K+ : {'true' if sd.narrow_equals_class else 'false'}\n", None)
        _write(json.dumps(rep, sort_keys=True, indent=1) + "\n", None)
        return 0

    if args.cmd == "trace" and args.sub == "geometric":
        with open(args.infile) as fh:
            table = table_from_csv(fh.read())
        tf = _parse_testfn(args.testfn)
        K = make_field(table.field_m)
        spec = _spec_for(K)
        table.elliptic = [classify_elliptic_trace(K, t, spec, cache)
                          for t in enumerate_elliptic_traces(K)]
        out = geometric_side(table, (args.weight,), tf, args.vol)
        out["config_digest"] = cfg.digest()
        _write(json.dumps({k: (f"{v:.12g}" if isinstance(v, float) else v)
                           for k, v in out.items()}, sort_keys=True, indent=1) + "\n", args.out)
        return 0

    if args.cmd == "oracle" and args.sub == "class-number":
        K = make_field(args.m)
        try:
            D = parse_element(K, args.D)
        except ValueError as e:
            raise ValueError(f"--D: {e}") from None
        if args.d:
            rows = _parse_hnf(args.d)
            # locate matching split to get a principal generator
            match = [dd for dd, _ in square_divisor_splits(D) if dd.rows == rows]
            if not match:
                raise ValueError("d is not a square-divisor split of (D)")
            d_id = match[0]
        else:
            d_id = ideal_of_element(D)
        order = build_order(K, D, d_id)
        arith = compute_arithmetic(order, cache, bound_scale=cfg.ideal_bound_scale,
                                   budget=cfg.principality_budget,
                                   unit_height=cfg.unit_search_height)
        rec = {
            "m": K.m,
            "D": format_element(D),
            "d_hnf": [list(r) for r in d_id.rows],
            "signature": order.signature,
            "realizable": order.realizable,
            "h_O": arith.h_O,
            "unit_index": arith.unit_index,
            "reg": f"{arith.reg:.12g}",
            "torsion": arith.torsion,
            "certified": arith.certified,
            "oracle_bounds": list(arith.oracle_bounds),
            "config_digest": cfg.digest(),
        }
        _write(json.dumps(rec, sort_keys=True, indent=1) + "\n", None)
        if not arith.certified:
            return 3 if cfg.strict else 0
        return 0

    raise ValueError(f"unknown command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
