"""Command-line interface.

Every capability is exposed as a subcommand producing deterministic CSV
(17 significant digits) or JSON on stdout or at ``--out``.  Exit code 2
marks a validation problem, 3 a numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np
import scipy.special as sps

from .ballquad import BallRule, angular_rule_from_count, check_node_count, integrate_exponential
from .interp import ChannelCache, recover_coeffs, sampling_rule
from .prolate import NumericalError, ProlateChannel, eval_phi, eval_phi_deriv, solve_channel
from .quadrature import chebyshev_rule, gaussian_rule
from .roots import find_roots
from .spectrum import beta_chain, harmonic_count, mu_sum_check

_FMT = "%.17g"


class ValidationError(ValueError):
    pass


def _write(args, header, rows, payload) -> None:
    """Write ``rows`` under ``header`` as CSV, or ``payload`` as JSON with --format json."""
    text = json.dumps(payload) + "\n" if args.format == "json" else _csv(rows, header)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _floats(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated list of numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"expected finite numbers, got {text!r}")
    return values


def _radial_spec(text: str):
    try:
        kind, count = text.split(":")
        count = int(count)
    except ValueError as exc:
        raise ValidationError(f"--radial expects kind:count, got {text!r}") from exc
    if kind not in ("cheb", "gauss"):
        raise ValidationError(f"radial kind must be cheb or gauss, got {kind!r}")
    if count < 1:
        raise ValidationError("radial count must be positive")
    return kind, count


def _closed_form_exponential(p: int, c: float, x: np.ndarray) -> complex:
    # exact ball integral of e^(ic<x,t>): (2 pi / c)^(p/2+1) J_(p/2+1)(c|x|) / |x|^(p/2+1)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return complex(math.pi ** (p / 2.0 + 1.0) / math.gamma(p / 2.0 + 2.0))
    return complex((2.0 * math.pi / c) ** (p / 2.0 + 1.0) * sps.jv(p / 2.0 + 1.0, c * nx) / nx ** (p / 2.0 + 1.0))


def _cmd_eval(args) -> None:
    rr = np.asarray(_floats(args.r))
    if np.any((rr < 0.0) | (rr > 1.0)):
        raise ValidationError("radii must lie in [0, 1]")
    ch = ProlateChannel(args.p, args.c, args.N)
    mode = solve_channel(ch, args.n, eps=args.eps)[args.n]
    phi = np.atleast_1d(eval_phi(mode, rr))
    dphi = np.atleast_1d(eval_phi_deriv(mode, rr))
    _write(args, ["r", "phi", "dphi"], zip(rr, phi, dphi),
           {"r": rr.tolist(), "phi": phi.tolist(), "dphi": dphi.tolist()})


def _cmd_eigs(args) -> None:
    ch = ProlateChannel(args.p, args.c, args.N)
    modes = solve_channel(ch, args.nmax, eps=args.eps)
    triples = beta_chain(ch, args.nmax, eps=args.eps, modes=modes)
    rows = [
        (t.mode.n, modes[t.mode.n].chi, t.beta, t.lam.real, t.lam.imag, abs(t.lam), t.mu)
        for t in triples
    ]
    header = ["n", "chi", "beta", "lambda_re", "lambda_im", "abs_lambda", "mu"]
    _write(args, header, rows,
           [{"p": args.p, "c": args.c, "N": args.N, **dict(zip(header, r))} for r in rows])


def _cmd_roots(args) -> None:
    ch = ProlateChannel(args.p, args.c, args.N)
    modes = solve_channel(ch, args.n, eps=args.eps)
    rr = find_roots(modes[args.n])
    _write(args, ["root"], ((float(v),) for v in rr),
           {"p": args.p, "c": args.c, "N": args.N, "n": args.n, "roots": rr.tolist()})


def _cmd_quad(args, kind: str) -> None:
    ch = ProlateChannel(args.p, args.c, 0)
    rule = chebyshev_rule(ch, args.n) if kind == "cheb" else gaussian_rule(ch, args.n)
    _write(args, ["node", "weight"], zip(rule.nodes, rule.weights),
           {"p": ch.p, "c": ch.c, "kind": rule.kind, "n": len(rule.nodes), "exactness": rule.exactness,
            "nodes": rule.nodes.tolist(), "weights": rule.weights.tolist()})


def _cmd_ball_integrate(args) -> None:
    x = np.asarray(_floats(args.x))
    if len(x) != args.p + 2:
        raise ValidationError(f"--x needs {args.p + 2} coordinates for p={args.p}")
    kind, count = _radial_spec(args.radial)
    ch = ProlateChannel(args.p, args.c, 0)
    check_node_count(f"ball rule for p={args.p}, c={args.c:g}", args.p, count, args.angular)
    angular = angular_rule_from_count(args.p, args.angular)  # refuses a bad count before the solve
    radial = chebyshev_rule(ch, count) if kind == "cheb" else gaussian_rule(ch, count)
    val = integrate_exponential(BallRule(radial, angular), x, args.c)
    ref = _closed_form_exponential(args.p, args.c, x)
    rel = abs(val - ref) / abs(ref) if ref != 0 else float("nan")
    header, row = ["value_re", "value_im", "rel_err_vs_reference"], (val.real, val.imag, rel)
    _write(args, header, [row], dict(zip(header, row)))


def _cmd_interp(args) -> None:
    dim = args.p + 2
    if (args.x is None) == (args.samples is None):
        raise ValidationError("interp takes either --x or --samples, not both or neither")
    if args.x is not None:
        x = np.asarray(_floats(args.x))
        if len(x) != dim:
            raise ValidationError(f"--x needs {dim} coordinates for p={args.p}")
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's warning for a file with no rows
            data = np.loadtxt(args.samples, delimiter=",", skiprows=1, ndmin=2)
        if data.size == 0:
            raise ValidationError("sample file holds no sample rows")
        if data.shape[1] != dim + 2:
            raise ValidationError(
                f"sample file has {data.shape[1]} columns, expected {dim + 2} "
                f"({dim} node coordinates, f_re, f_im)"
            )
        if not np.all(np.isfinite(data)):
            raise ValidationError("sample file holds non-finite values")
    rule = sampling_rule(args.p, args.c, radial_count=args.radial_count,
                         angular_count=args.angular_count)
    if args.x is None:
        if data.shape[0] != rule.count:
            raise ValidationError(
                f"sample file has {data.shape[0]} rows, rule has {rule.count} nodes"
            )
        gap = float(np.max(np.abs(data[:, :dim] - rule.nodes())))
        if not gap <= 1e-12:
            raise ValidationError(
                f"sample file node columns differ from the rule nodes by {gap:.3g} (allowed 1e-12)"
            )
        samples = data[:, dim] + 1j * data[:, dim + 1]
    else:
        samples = np.exp(1j * args.c * (rule.nodes() @ x))
    modes = [(N, ell, n) for N in range(args.Nmax + 1)
             for ell in range(1, harmonic_count(args.p, N) + 1) for n in range(args.nmax + 1)]
    cache = ChannelCache(args.p, args.c, args.nmax)
    exp = recover_coeffs(rule, samples, args.c, modes, cache=cache)
    rows = [
        (N, ell, n, coeff.real, coeff.imag, abs(coeff))
        for (N, ell, n), coeff in sorted(exp.terms.items())
    ]
    _write(args, ["N", "l", "n", "re", "im", "abs"], rows,
           {"p": args.p, "c": args.c,
            "modes": [{"N": r[0], "l": r[1], "n": r[2], "re": r[3], "im": r[4]} for r in rows]})


def _cmd_spectrum_check(args) -> None:
    ProlateChannel(args.p, args.c, 0)  # refuses a bad c before the default sizes are read from it
    nmax = args.nmax if args.nmax is not None else int(args.c) + 40
    Nmax = args.Nmax if args.Nmax is not None else int(args.c) + 40
    partial, closed = mu_sum_check(args.p, args.c, Nmax, nmax)
    header, row = ["partial_sum", "closed_form", "ratio"], (partial, closed, partial / closed)
    _write(args, header, [row], dict(zip(header, row)))


def _cmd_figure_data(args) -> None:
    Ns = [int(v) for v in args.N.split(",") if v]
    if not Ns:
        raise ValidationError(f"--N needs at least one angular order, got {args.N!r}")
    chains = [beta_chain(ProlateChannel(args.p, args.c, N), args.nmax, eps=args.eps) for N in Ns]
    rows = [(N, t.mode.n + 1, abs(t.lam)) for N, chain in zip(Ns, chains) for t in chain]
    header = ["N", "i", "abs_lambda"]
    _write(args, header, rows, [dict(zip(header, r)) for r in rows])


@functools.cache  # one parser per process: main may be called many times in-process
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gpsf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, *, N=False, n=False, nmax=False, eps=False):
        sp.add_argument("--p", type=int, required=True, choices=(-1, 0, 1))
        sp.add_argument("--c", type=float, required=True)
        if N:
            sp.add_argument("--N", type=int, default=0)
        if n:
            sp.add_argument("--n", type=int, required=True)
        if nmax:
            sp.add_argument("--nmax", type=int, required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if eps:
            sp.add_argument("--eps", type=float, default=1e-16)

    sp = sub.add_parser("eval", help="evaluate Phi_{N,n} and its derivative at radii")
    common(sp, N=True, n=True, eps=True)
    sp.add_argument("--r", required=True, help="comma-separated radii in [0,1]")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("eigs", help="eigenvalue table of one radial channel")
    common(sp, N=True, nmax=True, eps=True)
    sp.set_defaults(func=_cmd_eigs)

    sp = sub.add_parser("roots", help="roots of Phi_{N,n}")
    common(sp, N=True, n=True, eps=True)
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("quad-cheb", help="interpolatory radial rule")
    common(sp, n=True)
    sp.set_defaults(func=lambda a: _cmd_quad(a, "cheb"))

    sp = sub.add_parser("quad-gauss", help="Gauss-type radial rule")
    common(sp, n=True)
    sp.set_defaults(func=lambda a: _cmd_quad(a, "gauss"))

    sp = sub.add_parser("ball-integrate", help="integrate e^(ic<x,t>) over the unit ball")
    common(sp)
    sp.add_argument("--x", required=True, help="comma-separated point coordinates")
    sp.add_argument("--radial", required=True, help="radial rule as kind:count (cheb or gauss)")
    sp.add_argument("--angular", type=int, required=True, help="angular node count")
    sp.set_defaults(func=_cmd_ball_integrate)

    sp = sub.add_parser("interp", help="recover expansion coefficients of e^(ic<x,t>)")
    common(sp)
    sp.add_argument("--x", default=None, help="comma-separated point coordinates, unless --samples")
    sp.add_argument("--Nmax", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--radial-count", type=int, default=None)
    sp.add_argument("--angular-count", type=int, default=None)
    sp.add_argument("--samples", default=None,
                    help="CSV of samples (…, f_re, f_im) on the rule nodes instead of --x")
    sp.set_defaults(func=_cmd_interp)

    sp = sub.add_parser("spectrum-check", help="spectral sum against its closed form")
    common(sp)
    sp.add_argument("--Nmax", type=int, default=None)
    sp.add_argument("--nmax", type=int, default=None)
    sp.set_defaults(func=_cmd_spectrum_check)

    sp = sub.add_parser("figure-data", help="|lambda| sequences for a list of channels")
    common(sp, nmax=True, eps=True)
    sp.add_argument("--N", required=True, help="comma-separated angular orders")
    sp.set_defaults(func=_cmd_figure_data)

    return ap


def _bind_coordinates(argv):
    # argparse takes a value such as "-0.3,0.4" for an option name, so bind
    # the token after --x to it: "--x -0.3,0.4" parses as "--x=-0.3,0.4"
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--x" else None
        out.append(tok if value is None else f"--x={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_bind_coordinates(argv))
    except SystemExit as exc:  # usage errors (2) and --help (0)
        return exc.code
    try:
        args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"gpsf: invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable --samples, unwritable --out
        print(f"gpsf: file error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"gpsf: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
