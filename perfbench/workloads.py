"""The benchmark's three workloads, as seeded lists of distinct jobs.

A job's ``run`` is the timed call into the program; ``check`` runs outside
the timed region and returns ``(ok, errors)`` with the list of measured
errors of that output. ``fingerprint`` reduces an output to something that
compares exactly, so later rounds only need a full check if they differ.

The program is reached only through module attributes looked up at call
time (``cli.main``, ``interp.recover_coeffs``), so the tracer's wrappers see
every call.
"""

import contextlib
import io
import math

import numpy as np

import checks
import gpsf.ballquad as ballquad
import gpsf.cli as cli
import gpsf.interp as interp
import gpsf.prolate as prolate
import gpsf.spectrum as spectrum

# The one operation that fails every run: spectrum.beta_direct at N close to c.
SPECTRUM_FAULT = "spectrum.beta_direct: spectral sum off at p=0, c=100 (N close to c)"


def _unit_ball(rng, dim, radius=1.0):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v) * radius * rng.uniform() ** (1.0 / dim)


def _jitter(rng, c0, share=0.02):
    """Band limit near c0, rounded to a short decimal so the CLI reads it exactly."""
    return float(f"{c0 * (1.0 + share * rng.uniform(-1.0, 1.0)):.4f}")


def _fmt(v):
    return repr(float(v))


def _perturbed(cols, col, i, value):
    """A copy of parsed CSV columns with one entry replaced."""
    bad = {k: v.copy() for k, v in cols.items()}
    bad[col][i] = value
    return bad


def _parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return {h: np.array([r[i] for r in rows]) for i, h in enumerate(header)}


class CliJob:
    """One gpsf command run in-process through ``gpsf.cli.main``, stdout captured."""

    def __init__(self, argv, checker, known_fault=None):
        self.argv = argv
        self.name = " ".join(argv)
        self.checker = checker
        self.known_fault = known_fault

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
        return rc, out.getvalue()

    @staticmethod
    def fingerprint(output):
        return output

    def check(self, output):
        rc, text = output
        if rc != 0:
            return False, []
        return self.checker(_parse_csv(text))


# ---------------------------------------------------------------- quad

def _integral_job(p, c, x, kind, count, angular):
    argv = [
        "ball-integrate", "--p", str(p), "--c", _fmt(c), "--x=" + ",".join(_fmt(v) for v in x),
        "--radial", f"{kind}:{count}", "--angular", str(angular),
    ]

    def checker(cols):
        value = complex(cols["value_re"][0], cols["value_im"][0])
        ok, err = checks.check_integral(p, c, x, value)
        return ok, [err]

    return CliJob(argv, checker)


def rule_sizes(c, kind):
    """Radial and angular counts that reach about 1e-11 relative for c <= 300."""
    n = math.ceil(c / math.pi) + 10 if kind == "cheb" else math.ceil(c / (2.0 * math.pi)) + 10
    return n, math.ceil(1.2 * c) + 30


QUAD_BANDS = {-1: (20, 45, 90, 150), 0: (20, 45, 90, 150), 1: (20, 35, 50)}


def quad_jobs(rng):
    jobs = []
    for p, bands in QUAD_BANDS.items():
        for c0 in bands:
            for kind in ("cheb", "gauss"):
                c = _jitter(rng, c0)
                n, m = rule_sizes(c, kind)
                jobs.append(_integral_job(p, c, _unit_ball(rng, p + 2), kind, n, m))
    return jobs


def quad_warmup():
    x = np.array([0.1, 0.15])
    return [_integral_job(0, 20.0, x, "cheb", *rule_sizes(20.0, "cheb"))]


def quad_self_test(jobs, outputs):
    """An integral perturbed by 1e-9 relative must fail the check."""
    cols = _parse_csv(outputs[0][1])
    bad = _perturbed(cols, "value_re", 0, cols["value_re"][0] * (1.0 + 1e-9))
    return {"integral perturbed by 1e-9 relative": not jobs[0].checker(bad)[0]}


# ---------------------------------------------------------------- spectrum

def _spectrum_check_job(p, c, known_fault=None):
    def checker(cols):
        ok, err = checks.check_spectral_sum(p, c, cols["partial_sum"][0])
        return ok, [err]

    return CliJob(["spectrum-check", "--p", str(p), "--c", _fmt(c)], checker, known_fault)


def _eigs_checker(p, c, N):
    def checker(cols):
        ok, _ = checks.check_lambda_sequence(p, c, cols["abs_lambda"], cols["mu"])
        errs = []
        if p == -1:
            ok_chi, err = checks.check_chi_interval(c, N, cols["n"].astype(int), cols["chi"])
            ok = ok and ok_chi
            errs.append(err)
        return ok, errs

    return checker


def _eigs_job(p, c, N, nmax):
    argv = ["eigs", "--p", str(p), "--c", _fmt(c), "--N", str(N), "--nmax", str(nmax)]
    return CliJob(argv, _eigs_checker(p, c, N))


def _figure_job(p, c, Ns, nmax):
    argv = ["figure-data", "--p", str(p), "--c", _fmt(c), "--N", ",".join(map(str, Ns)), "--nmax", str(nmax)]

    def checker(cols):
        ok = sorted(set(cols["N"].astype(int))) == sorted(Ns)
        for N in Ns:
            sel = cols["N"] == N
            ok = ok and checks.check_lambda_sequence(p, c, cols["abs_lambda"][sel])[0]
        return ok, []

    return CliJob(argv, checker)


SPECTRUM_BANDS = {-1: (20, 50, 80), 0: (15, 30, 50), 1: (15, 30, 50)}


def spectrum_jobs(rng):
    jobs = [_spectrum_check_job(0, 100.0, known_fault=SPECTRUM_FAULT)]
    for p, bands in SPECTRUM_BANDS.items():
        for c0 in bands:
            jobs.append(_spectrum_check_job(p, _jitter(rng, c0)))
    for p in (-1, 0, 1):
        for c0 in (40, 100):
            N = int(rng.integers(0, 2)) if p == -1 else int(rng.integers(0, 11))
            jobs.append(_eigs_job(p, _jitter(rng, c0), N, 39))
        Ns = [0, 1] if p == -1 else sorted(int(v) for v in rng.choice(41, size=4, replace=False))
        jobs.append(_figure_job(p, _jitter(rng, 50), Ns, 23))
    return jobs


def spectrum_warmup():
    return [_spectrum_check_job(0, 20.0), _eigs_job(-1, 20.0, 0, 15)]


def spectrum_self_test(jobs, outputs):
    """A sum off by 1e-10, a chi off by 1e-11, mu = 1 and a rising |lambda| must fail."""
    (sum_job, eigs_job), (sum_out, eigs_out) = jobs, outputs
    s, e = _parse_csv(sum_out[1]), _parse_csv(eigs_out[1])
    wrong = {
        "spectral sum off by 1e-10": (sum_job, _perturbed(s, "partial_sum", 0, s["partial_sum"][0] * (1.0 + 1e-10))),
        "chi off by 1e-11 relative": (eigs_job, _perturbed(e, "chi", 3, e["chi"][3] * (1.0 + 1e-11))),
        "mu equal to 1": (eigs_job, _perturbed(e, "mu", 2, 1.0)),
        "|lambda| rising by 1e-13": (eigs_job, _perturbed(e, "abs_lambda", 4, e["abs_lambda"][3] * (1.0 + 1e-13))),
    }
    return {label: not job.checker(cols)[0] for label, (job, cols) in wrong.items()}


# ---------------------------------------------------------------- recover

# (p, c, Nmax, nmax): every mode with |lambda| >= 1e-13 |lambda_00| is inside
# the grid, so synthesis over the kept modes reaches 7.2e-13.
RECOVER_CASES = [
    (-1, 10.0, 1, 11), (-1, 25.0, 1, 18), (-1, 40.0, 1, 24),
    (0, 4.0, 19, 7), (0, 8.0, 27, 10), (0, 12.0, 33, 12),
    (1, 1.0, 11, 4), (1, 2.0, 14, 5),
]
FUNCTIONS_PER_JOB = 2
POINTS_PER_FUNCTION = 2
SYNTH_RADIUS = 0.7
LAMBDA_CUT = 1e-13


class RecoverJob:
    """Library pipeline: one sampling rule and cache, several e^(ic<x,.>) recovered and synthesized."""

    def __init__(self, p, c, Nmax, nmax, xs, ys):
        self.p, self.c, self.xs, self.ys = p, c, xs, ys
        self.modes = [
            (N, ell, n)
            for N in range(Nmax + 1)
            for ell in range(1, spectrum.harmonic_count(p, N) + 1)
            for n in range(nmax + 1)
        ]
        self.nmax = nmax
        self.name = f"recover p={p} c={c:g} Nmax={Nmax} nmax={nmax} functions={len(xs)}"
        self.known_fault = None

    def run(self):
        p, c = self.p, self.c
        rule = interp.sampling_rule(p, c)
        cache = interp.ChannelCache(p, c, self.nmax)
        nodes = rule.nodes()
        results = []
        for x, ys in zip(self.xs, self.ys):
            exp = interp.recover_coeffs(rule, np.exp(1j * c * (nodes @ x)), c, self.modes, cache=cache)
            floor = LAMBDA_CUT * abs(cache.triples(0)[0].lam)
            kept = {
                (N, ell, n): a
                for (N, ell, n), a in exp.terms.items()
                if n < len(cache.triples(N)) and abs(cache.triples(N)[n].lam) >= floor
            }
            cut = interp.GpsfExpansion(p, c, kept)
            values = [interp.synthesize(cut, y, cache=cache) for y in ys]
            results.append((exp.terms, values))
        return results, cache

    @staticmethod
    def fingerprint(output):
        return output[0]

    def eigen_reference(self, x, cache):
        """lambda_{N,n} Phi_{N,n}(|x|) S_N^ell(x/|x|) for every mode with a chain eigenvalue."""
        r = float(np.linalg.norm(x))
        xhat = (x / r)[None, :]
        ref = {}
        for N, ell, n in self.modes:
            triples = cache.triples(N)
            if n < len(triples):
                s = float(ballquad.surface_harmonic(self.p, N, ell, xhat)[0])
                ref[(N, ell, n)] = triples[n].lam * prolate.eval_phi(cache.modes(N)[n], r) * s
        return ref

    def check(self, output):
        results, cache = output
        ok, errs = True, []
        for x, ys, (terms, values) in zip(self.xs, self.ys, results):
            good, err = checks.check_coefficients(self.p, self.c, terms, self.eigen_reference(x, cache))
            ok, errs = ok and good, errs + [err]
            for y, v in zip(ys, values):
                good, err = checks.check_synthesis(self.c, x, y, v)
                ok, errs = ok and good, errs + [err]
        return ok, errs


def _recover_job(rng, p, c, Nmax, nmax):
    xs = [_unit_ball(rng, p + 2) for _ in range(FUNCTIONS_PER_JOB)]
    ys = [[_unit_ball(rng, p + 2, SYNTH_RADIUS) for _ in range(POINTS_PER_FUNCTION)] for _ in xs]
    return RecoverJob(p, c, Nmax, nmax, xs, ys)


def recover_jobs(rng):
    return [_recover_job(rng, *case) for case in RECOVER_CASES]


def recover_warmup():
    return [_recover_job(np.random.default_rng(0), 0, 4.0, 19, 7)]


def recover_self_test(jobs, outputs):
    """A coefficient with its sign flipped, and a synthesized value off by 1e-9, must fail."""
    job, (results, cache) = jobs[0], outputs[0]
    terms, values = results[0]
    x, y = job.xs[0], job.ys[0][0]
    key = max(terms, key=lambda k: abs(terms[k]))
    flipped = dict(terms)
    flipped[key] = -flipped[key]
    ref = job.eigen_reference(x, cache)
    return {
        "coefficient with its sign flipped": not checks.check_coefficients(job.p, job.c, flipped, ref)[0],
        "synthesized value off by 1e-9": not checks.check_synthesis(job.c, x, y, values[0] + 1e-9)[0],
    }


# name -> (seeded job list, fixed warm-up jobs, self-test of the checks on the warm-up outputs)
WORKLOADS = {
    "quad": (quad_jobs, quad_warmup, quad_self_test),
    "spectrum": (spectrum_jobs, spectrum_warmup, spectrum_self_test),
    "recover": (recover_jobs, recover_warmup, recover_self_test),
}
