"""Command-line interface with stable JSON/CSV output.

Exit codes: 0 on success (and on verify match), 2 on verify mismatch, 1 on
usage errors.  JSON output is key-sorted so identical inputs give
byte-identical results; CSV column order mirrors the reference tables.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import boom, charsum, diff, family, predict, scan
from .errors import FFBinomError
from .family import BinomialSpec
from .gf import make_field


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default is 2, reserved here for
    # verification mismatches)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="characteristic (odd prime)")
    parser.add_argument("--n", type=int, default=1, help="extension degree (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ffbinom")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_field = sub.add_parser("field", help="field-level queries")
    field_sub = p_field.add_subparsers(dest="field_command", required=True, parser_class=_Parser)
    p_info = field_sub.add_parser("info", help="print field parameters as JSON")
    _field_args(p_info)
    p_info.add_argument("--json", action="store_true", help="emit JSON (default)")
    p_info.set_defaults(func=_cmd_field_info)

    p_fam = sub.add_parser("families", help="special exponents applicable to a field")
    _field_args(p_fam)
    p_fam.add_argument("--json", action="store_true", help="emit JSON (default)")
    p_fam.set_defaults(func=_cmd_families)

    p_spec = sub.add_parser("spectrum", help="differential / boomerang spectra")
    spec_sub = p_spec.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    for kind in ("diff", "boom"):
        sp = spec_sub.add_parser(kind)
        _field_args(sp)
        sp.add_argument("--r", type=int, required=True, help="exponent")
        sp.add_argument("--u", type=int, default=1, help="binomial coefficient u (default 1)")
        sp.add_argument("--json", action="store_true", help="emit JSON (default)")
        sp.set_defaults(func=_cmd_spectrum)

    p_cs = sub.add_parser("charsum", help="exact character sums")
    cs_sub = p_cs.add_subparsers(dest="which_sum", required=True, parser_class=_Parser)
    for name in ("gamma", "lambda"):
        cp = cs_sub.add_parser(name)
        _field_args(cp)
        cp.add_argument("--json", action="store_true", help="emit JSON (default)")
        cp.set_defaults(func=_cmd_charsum)

    p_ver = sub.add_parser("verify", help="closed-form prediction vs brute-force oracle")
    p_ver.add_argument("--theorem", choices=predict.THEOREMS, required=True)
    p_ver.add_argument("--p", type=int, help="characteristic for a single field")
    p_ver.add_argument("--n", type=int, help="extension degree (default 1)")
    p_ver.add_argument("--r", type=int, help="exponent (theorem du)")
    p_ver.add_argument("--qmax", type=int, help="verify all applicable fields up to this order")
    p_ver.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="scan exponents for the S00 collision condition")
    _field_args(p_scan)
    p_scan.add_argument("--rmin", type=int, default=1)
    p_scan.add_argument("--rmax", type=int, default=None)
    p_scan.add_argument("--jobs", type=int, default=None,
                        help="worker count (default $FFBINOM_JOBS or 1)")
    p_scan.add_argument("--out", type=str, default=None,
                        help="append JSON-lines here instead of stdout")
    p_scan.set_defaults(func=_cmd_scan)

    p_tab = sub.add_parser("tables", help="reproduce the reference tables as CSV")
    p_tab.add_argument("--which", choices=("ds-f3", "bs-f2"), required=True)
    p_tab.set_defaults(func=_cmd_tables)
    return parser


def _cmd_field_info(parser, args) -> int:
    fld = make_field(args.p, args.n)
    _print_json(
        {
            "p": fld.p,
            "n": fld.n,
            "q": fld.q,
            "modulus": list(fld.modulus) if fld.modulus else None,
            "generator": fld.generator,
        }
    )
    return 0


def _cmd_families(parser, args) -> int:
    fld = make_field(args.p, args.n)
    _print_json(
        [
            {"name": f.name, "k": f.k, "r": f.r, "gcd": f.gcd_order}
            for f in family.table1_exponents(fld)
        ]
    )
    return 0


def _cmd_spectrum(parser, args) -> int:
    fld = make_field(args.p, args.n)
    spec = BinomialSpec(args.r, args.u % fld.p if args.u < 0 else args.u)
    if args.kind == "diff":
        spectrum, report = diff.row_report(fld, spec)
        _print_json(
            {
                "q": fld.q,
                "r": args.r,
                "u": spec.u,
                "omega": {str(i): c for i, c in spectrum.omega.items()},
                "uniformity": spectrum.uniformity,
                "locally_apn_star": report.star,
                "locally_apn_strict": report.strict,
            }
        )
    else:
        spectrum = boom.boom_spectrum(fld, spec)
        _print_json(
            {
                "q": fld.q,
                "r": args.r,
                "nu": {str(i): c for i, c in spectrum.nu.items()},
                "uniformity": spectrum.uniformity,
            }
        )
    return 0


def _cmd_charsum(parser, args) -> int:
    fld = make_field(args.p, args.n)
    res = charsum.gamma(fld) if args.which_sum == "gamma" else charsum.lambda_sum(fld)
    _print_json(
        {
            "q": fld.q,
            "sum": args.which_sum,
            "value": res.value,
            "bound": res.bound,
            "tight": res.tight,
        }
    )
    return 0


def _cmd_verify(parser, args) -> int:
    if args.qmax is not None:
        if args.r is not None:
            parser.error("--r needs a single field (--p/--n), not --qmax")
        if args.p is not None or args.n is not None:
            parser.error("--qmax walks its own fields: drop --p/--n")
        fields, r = predict.fields_for(args.theorem, args.qmax), None
    elif args.p is None:
        parser.error("verify needs --p/--n or --qmax")
    else:
        fields, r = [make_field(args.p, 1 if args.n is None else args.n)], args.r
    reports = []
    for fld in fields:
        # du without an exponent runs every special exponent of the field
        if args.theorem == "du" and r is None:
            rs = [fam.r for fam in family.table1_exponents(fld)]
            if not rs:
                parser.error(f"q = {fld.q} is not 3 mod 4: theorem 'du' has no special exponent to verify")
        else:
            rs = [r]
        reports += [predict.verify(fld, args.theorem, ri) for ri in rs]
    if not reports:
        parser.error(f"theorem '{args.theorem}' applies to no field of order at most {args.qmax}")
    _print_json([rep.to_dict() for rep in reports])
    return 0 if all(rep.match for rep in reports) else 2


def _cmd_scan(parser, args) -> int:
    fld = make_field(args.p, args.n)
    rmax = args.rmax if args.rmax is not None else fld.q - 2
    jobs = args.jobs if args.jobs is not None else scan.default_jobs()
    results = scan.scan_exponents(fld, args.rmin, rmax, jobs=jobs)
    if args.out:
        scan.write_jsonl(results, args.out)
    else:
        for res in results:
            print(res.to_json_line())
    return 0


# largest order of each reference table: the paper's ds-f3 rows run to
# q = 227, its bs-f2 rows to n = 9
_TABLE_QMAX = {"ds-f3": 227, "bs-f2": 3**9}


def _cmd_tables(parser, args) -> int:
    ds = args.which == "ds-f3"
    print("q,gamma,omega_0,omega_1,omega_2,omega_(q+1)/4" if ds else "n,lambda,nu_0,nu_1")
    for fld in predict.fields_for(args.which, _TABLE_QMAX[args.which]):
        rep = predict.verify(fld, args.which)
        if ds:
            omega = rep.oracle["omega"]
            row = [fld.q, rep.char_sum] + [omega.get(i, 0) for i in (0, 1, 2, (fld.q + 1) // 4)]
        else:
            nu = rep.oracle["nu"]
            row = [fld.n, rep.char_sum, nu.get(0, 0), nu.get(1, 0)]
        print(",".join(map(str, row)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every toolkit error, from any command, is a usage error: exit 1
    try:
        return args.func(parser, args)
    except FFBinomError as exc:
        parser.error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
