"""covwit command-line front end.

Subcommands: certify {hh|werner3|quo}, state rho-t, witness apply, twirl,
regions hh, sweep hh, selftest.  Exit codes: 0 success, 1 invalid input,
2 numerical failure.

Each command imports the family and helper modules it uses when it runs, so
`certify hh` loads no S3 module and `certify werner3` loads no hh or quo.
"""

import argparse
import contextlib
import re
import sys

# numpy stays at the top: main's np.errstate wraps every command, and
# perfbench's import_times reads numpy's import time from `import covwit.cli`.
import numpy as np

from . import __version__
from .linalg import (ContractError, CovwitError, DimensionError,
                     NumericalError, integer)

NUMBER = re.compile(r"[+-]?([0-9]+/[0-9]+|([0-9]+\.?[0-9]*|\.[0-9]+)"
                    r"([eE][+-]?[0-9]+)?)")


def parse_number(text):
    """ASCII decimal or exact rational p/q, rounded once to a float (int
    true division is correctly rounded)."""
    text = text.strip()
    try:
        if NUMBER.fullmatch(text):
            p, _, q = text.partition("/")
            return int(p) / int(q) if q else float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass  # ValueError: more digits than int() converts
    raise ContractError(f"cannot parse number {text!r}")


def parse_coeffs(text):
    """Comma-separated numbers: from_tuple6 takes ae,a12,a13,a23,re,im."""
    return [parse_number(p) for p in text.split(",")]


def emit_certificate(cert, args):
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(cert.to_json())
    print(cert.summary())


def cmd_certify(args):
    if args.family == "hh":
        from . import hh
        co = hh.HHCoeffs(args.d, *map(parse_number, (args.a, args.b, args.c)))
        cert = hh.decide(co)
    else:
        if args.family == "werner3":
            from .werner3 import S3Coeffs as cls
            from .werner3 import detect_entanglement_w3 as decide
        else:
            from .quo import QuoCoeffs as cls, decide_quo as decide
        c = cls.from_tuple6(args.d, parse_coeffs(args.coeffs))
        cert = decide(c)
    emit_certificate(cert, args)
    return 0


def cmd_state(args):
    from . import serialize, werner3
    c = werner3.rho_t_coeffs(args.d, parse_number(args.t))
    if args.out:
        rho = werner3.invariant_matrix(c)
        serialize.write_matrix(rho, args.out)
    print(f"rho_t  d={args.d}  t={args.t}")
    print(f"coeffs: a_e={c.a_e!r} a_12={c.a_12!r} a_13={c.a_13!r} "
          f"a_23={c.a_23!r} a_123={c.a_123!r}")
    print(f"trace: {c.trace()!r}")
    if args.out:
        print(f"wrote {rho.shape[0]}x{rho.shape[1]} matrix to {args.out}")
    return 0


def map_from_file(path):
    from . import choi, hh, quo, serialize, werner3
    obj = serialize.load_json(path)
    if not isinstance(obj, dict):
        raise ContractError(f"map JSON in {path} is not an object")
    if "choi_unnormalized" in obj:
        c = serialize.matrix_from_obj(obj["choi_unnormalized"])
        return choi.LinMap(obj.get("d_in"), obj.get("d_out"), c)
    fam = obj.get("family")
    if fam not in ("hh", "werner3-L", "quo-M"):
        raise ContractError(f"unrecognized map JSON in {path}")
    co = obj.get("coeffs")
    if not isinstance(co, dict):
        raise ContractError(f"map JSON in {path} needs a \"coeffs\" object")
    keys = (("a", "b", "c") if fam == "hh"
            else ("a_e", "a_12", "a_13", "a_23", "re_123"))
    for key in keys:
        if key not in co:
            raise ContractError(f"map JSON in {path}: coeffs lack {key!r}")
    if fam == "hh":
        return hh.build_psi(hh.HHCoeffs(obj.get("d"), co["a"], co["b"],
                                        co["c"]))
    mod, cls = ((werner3, werner3.S3Coeffs) if fam == "werner3-L"
                else (quo, quo.QuoCoeffs))
    return mod.build_map(cls.from_tuple6(obj.get("d"), (
        co["a_e"], co["a_12"], co["a_13"], co["a_23"], co["re_123"],
        co.get("im_123", 0.0))))


def finite(x, what):
    """x, unless an overflow made it non-finite."""
    if not np.isfinite(x).all():
        raise NumericalError(f"{what} is not finite (overflow)")
    return x


def cmd_witness(args):
    from . import serialize
    w = map_from_file(args.witness)
    rho = serialize.read_matrix(args.state)
    if args.adjoint:
        w = w.adjoint()
    n = rho.shape[0]
    if n % w.d_in != 0:
        raise DimensionError(
            f"state dimension {n} is not a multiple of map input {w.d_in}")
    d_id = n // w.d_in
    out = finite(w.id_tensor(rho, d_id), "witness image")
    ev = finite(np.linalg.eigvalsh((out + out.conj().T) / 2),
                "witness image spectrum")
    print(f"min_eig: {float(ev[0])!r}")
    print(f"max_eig: {float(ev[-1])!r}")
    if args.out:
        serialize.write_matrix(out, args.out)
    return 0


def cmd_twirl(args):
    from . import serialize, twirl
    x = serialize.read_matrix(args.matrix_file)
    basis = twirl.BASES[args.family](twirl.family_dim(args.family,
                                                      x.shape[0]))
    coeffs = [[float(z.real), float(z.imag)]
              for z in twirl.coefficients(x, basis)]
    out = twirl.cond_expect(x, basis)
    residual = finite(np.linalg.norm(x - out), "twirl residual")
    print(f"coefficients: {coeffs}")
    print(f"residual: {float(residual)!r}")
    if args.out:
        serialize.write_matrix(out, args.out)
    return 0


def cmd_regions(args):
    from . import hh
    ext = hh.extremals(args.d)
    if args.emit == "vertices":
        print("# positive-extremal vertices (a, b, c)")
        for v in ext.cp_vertices:
            print(f"cp      {v.a!r} {v.b!r} {v.c!r}")
        for v in ext.ccp_vertices:
            print(f"ccp     {v.a!r} {v.b!r} {v.c!r}")
        print("# PPT polytope vertices (a, b, c)")
        for i, v in enumerate(hh.ppt_vertices(args.d)):
            print(f"ppt v{i}  {v.a!r} {v.b!r} {v.c!r}")
        print("# PPT subfamily vertices (b, c) with a = 1-b-c")
        for i, v in enumerate(hh.wh_vertices(args.d), start=1):
            print(f"wh w{i}   {v.b!r} {v.c!r}")
    else:
        d = args.d
        print(f"# CPTP iff:  0 <= a <= {d}/{d-1};  "
              f"a/{d} - 1/{d-1} <= b <= 1 - {d-1}a/{d};  |c| <= a/{d}")
        print("# CCP iff CPTP holds with b and c exchanged; PPT iff both")
        print(f"# positivity (d >= 3): a in [0, {d}/{d-1}];  "
              f"({d-2}/{d})a + b + c <= 1;  ({d-2}/{d})a + |b-c| <= 1;")
        print(f"#   b + c >= -1/{d-1};  b - {d-1}c <= 1;  c - {d-1}b <= 1")
    return 0


def cmd_sweep(args):
    from . import hh, s3
    d = integer(args.d, "--d", 3, ContractError)
    n = s3.grid_size(args.grid, "--grid")
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("a,b,c,positive,cp,ccp,ppt,eb\n")  # each row as it is made
        axis = s3.linspace(-1.0, 1.0, n)
        for a in s3.linspace(0.0, d / (d - 1), n):
            for b in axis:
                for c in axis:
                    co = hh.HHCoeffs(d, a, b, c)
                    pos, cp = hh.is_positive(co)[0], hh.is_cptp(co)
                    ccp = hh.is_ccp(co)
                    fh.write("%.17g,%.17g,%.17g,%d,%d,%d,%d,%d\n" % (
                        a, b, c, pos, cp, ccp, cp and ccp, cp and ccp))
    if args.out:
        print(f"wrote {n**3} rows to {args.out}")
    return 0


def cmd_selftest(args):
    from . import oracle  # only selftest pays for the oracles' import
    ok, _ = oracle.selftest(seed=args.seed, level=args.level)
    return 0 if ok else 2


class Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one stderr line, exit code 1."""

    def error(self, message):
        raise ContractError(f"{self.prog}: {message}")


def build_parser():
    p = Parser(
        prog="covwit",
        description="certify separability / PPT / entanglement breaking for "
                    "group-covariant channels and invariant states")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="certify a family member")
    csub = cert.add_subparsers(dest="family", required=True)
    chh = csub.add_parser("hh")
    chh.add_argument("--d", type=int, required=True)
    chh.add_argument("--a", required=True)
    chh.add_argument("--b", required=True)
    chh.add_argument("--c", required=True)
    chh.add_argument("--json", default=None)
    for fam in ("werner3", "quo"):
        cf = csub.add_parser(fam)
        cf.add_argument("--d", type=int, required=True)
        cf.add_argument("--coeffs", required=True,
                        help="ae,a12,a13,a23,re123,im123")
        cf.add_argument("--json", default=None)

    st = sub.add_parser("state", help="build a named state")
    ssub = st.add_subparsers(dest="which", required=True)
    srt = ssub.add_parser("rho-t")
    srt.add_argument("--d", type=int, required=True)
    srt.add_argument("--t", required=True)
    srt.add_argument("--out", default=None)

    wit = sub.add_parser("witness", help="apply a witness map to a state")
    wsub = wit.add_subparsers(dest="which", required=True)
    wap = wsub.add_parser("apply")
    wap.add_argument("--witness", required=True)
    wap.add_argument("--state", required=True)
    wap.add_argument("--adjoint", action="store_true",
                     help="apply the adjoint of the stored map")
    wap.add_argument("--out", default=None)

    tw = sub.add_parser("twirl", help="project onto an invariant algebra")
    tw.add_argument("--family", required=True,
                    choices=("hh", "uuu", "uubaru", "oo"))
    tw.add_argument("--matrix-file", required=True)
    tw.add_argument("--out", default=None)

    rg = sub.add_parser("regions", help="emit region data")
    rsub = rg.add_subparsers(dest="family", required=True)
    rhh = rsub.add_parser("hh")
    rhh.add_argument("--d", type=int, required=True)
    rhh.add_argument("--emit", required=True,
                     choices=("vertices", "inequalities"))

    sw = sub.add_parser("sweep", help="grid sweep to CSV")
    wsub2 = sw.add_subparsers(dest="family", required=True)
    shh = wsub2.add_parser("hh")
    shh.add_argument("--d", type=int, required=True)
    shh.add_argument("--grid", type=int, required=True)
    shh.add_argument("--out", default=None)

    se = sub.add_parser("selftest", help="run the oracle-agreement suite")
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--level", default="quick", choices=("quick", "full"))
    return p


DISPATCH = {
    "certify": cmd_certify,
    "state": cmd_state,
    "witness": cmd_witness,
    "twirl": cmd_twirl,
    "regions": cmd_regions,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def main(argv=None):
    """Run one command.  numpy's floating-point warnings are silenced so
    that a failure prints one stderr line; `witness apply` and `twirl`
    report a non-finite result as a numerical failure."""
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return DISPATCH[args.command](args)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (CovwitError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
