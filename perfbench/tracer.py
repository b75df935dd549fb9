"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each gpsf module. The
modules bind names with ``from .prolate import eval_phi``, so a wrapper
replaces the name in every gpsf module that holds the function, not only
in the module that defines it; ``uninstall`` puts the originals back. The
eigensolve is timed through the ``eigh_tridiagonal`` name that
``gpsf.prolate`` holds.

Each call records a span (name, start, end, parent span, extras) in a list
kept in memory; ``layer_metrics`` turns one round's spans into the
per-layer metrics. A span's self time is its duration minus the time its
child spans cover.
"""

import sys
import warnings
from time import perf_counter

import numpy as np

# (module, attribute, span name, extras(args, kwargs, result) -> tuple)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("prolate", "tridiag_matrix", "prolate.tridiag_matrix", None),
    ("prolate", "eigh_tridiagonal", "prolate.eigensolve", None),
    ("prolate", "solve_channel", "prolate.solve_channel", None),
    ("prolate", "eval_phi", "prolate.eval_phi", lambda a, kw, out: (int(np.ndim(a[1]) == 0),)),
    ("prolate", "eval_phi_deriv", "prolate.eval_phi_deriv", None),
    ("kernels", "rbar_basis", "kernels.rbar_basis", lambda a, kw, out: (a[2] * np.size(a[3]),)),
    (
        "kernels",
        "rbar_basis_with_deriv",
        "kernels.rbar_basis_with_deriv",
        lambda a, kw, out: (a[2] * np.size(a[3]),),
    ),
    ("kernels", "phase_sum", "kernels.phase_sum", lambda a, kw, out: (np.size(a[0]),)),
    ("spectrum", "beta_chain", "spectrum.beta_chain", None),  # (modes, truncations), set in _wrap
    ("spectrum", "beta_direct", "spectrum.beta_direct", None),
    ("roots", "find_roots", "roots.find_roots", lambda a, kw, out: (len(out),)),
    ("quadrature", "chebyshev_rule", "quadrature.chebyshev_rule", None),
    ("quadrature", "gaussian_rule", "quadrature.gaussian_rule", None),
    ("ballquad", "integrate_exponential", "ballquad.integrate_exponential", None),
    ("ballquad", "angular_rule_from_count", "ballquad.angular_rule_from_count", None),
    ("ballquad", "surface_harmonic", "ballquad.surface_harmonic", None),
    ("interp", "sampling_rule", "interp.sampling_rule", None),
    ("interp", "recover_coeffs", "interp.recover_coeffs", lambda a, kw, out: (len(out.terms),)),
    ("interp", "synthesize", "interp.synthesize", None),
]

# Per-layer metrics in the order they are reported, with unit and better
# direction; BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("prolate.tridiag_matrix.self_s", "s", "lower"),
    ("prolate.eigensolve.s", "s", "lower"),
    ("prolate.eigensolve.calls", "count", "lower"),
    ("prolate.solve_channel.calls", "count", "lower"),
    ("prolate.eigensolves_per_solve", "ratio", "lower"),
    ("prolate.eval_phi.scalar_calls", "count", "lower"),
    ("prolate.eval_phi.scalar_s", "s", "lower"),
    ("prolate.eval_phi.batched_calls", "count", "lower"),
    ("prolate.eval_phi.batched_s", "s", "lower"),
    ("prolate.eval_phi_deriv.calls", "count", "lower"),
    ("prolate.eval_phi_deriv.s", "s", "lower"),
    ("kernels.rbar_basis.calls", "count", "lower"),
    ("kernels.rbar_basis.entries", "count", "lower"),
    ("kernels.rbar_basis.s", "s", "lower"),
    ("kernels.rbar_basis_with_deriv.calls", "count", "lower"),
    ("kernels.rbar_basis_with_deriv.entries", "count", "lower"),
    ("kernels.rbar_basis_with_deriv.s", "s", "lower"),
    ("kernels.phase_sum.terms", "count", "lower"),
    ("kernels.phase_sum.s", "s", "lower"),
    ("spectrum.beta_chain.calls", "count", "lower"),
    ("spectrum.beta_chain.modes", "count", "higher"),
    ("spectrum.beta_chain.self_s", "s", "lower"),
    ("spectrum.beta_direct.s", "s", "lower"),
    ("spectrum.beta_chain.truncations", "count", "lower"),
    ("roots.find_roots.calls", "count", "lower"),
    ("roots.find_roots.roots", "count", "higher"),
    ("roots.find_roots.self_s", "s", "lower"),
    ("roots.evals_per_root", "ratio", "lower"),
    ("quadrature.chebyshev_rule.self_s", "s", "lower"),
    ("quadrature.gaussian_rule.self_s", "s", "lower"),
    ("quadrature.gaussian_rule.basis_builds", "count", "lower"),
    ("ballquad.integrate_exponential.self_s", "s", "lower"),
    ("ballquad.angular_rule_from_count.s", "s", "lower"),
    ("ballquad.surface_harmonic.calls", "count", "lower"),
    ("ballquad.surface_harmonic.s", "s", "lower"),
    ("interp.sampling_rule.self_s", "s", "lower"),
    ("interp.recover_coeffs.self_s", "s", "lower"),
    ("interp.recover_coeffs.terms", "count", "higher"),
    ("interp.basis_builds_per_term", "ratio", "lower"),
    ("interp.synthesize.self_s", "s", "lower"),
    ("interp.synthesize.points", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_CHAIN_TRUNCATED = "ratio chain truncated"
_BASIS = ("kernels.rbar_basis", "kernels.rbar_basis_with_deriv")
_EVALS = ("prolate.eval_phi", "prolate.eval_phi_deriv")


class Tracer:
    """Wraps gpsf's public functions and records one span per call."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, extras)
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def install(self):
        mods = [m for n, m in list(sys.modules.items()) if n == "gpsf" or n.startswith("gpsf.")]
        for mod_name, attr, span_name, extras in TARGETS:
            original = getattr(sys.modules["gpsf." + mod_name], attr)
            wrapper = self._wrap(span_name, original, extras)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, extras):
        spans, stack = self.spans, self._stack
        chain = name == "spectrum.beta_chain"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            caught = []
            t0 = perf_counter()
            try:
                if chain:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                else:
                    out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                if chain:
                    truncations = sum(str(w.message).startswith(_CHAIN_TRUNCATED) for w in caught)
                    extra = (len(out) if out is not None else 0, truncations)
                else:
                    extra = extras(args, kwargs, out) if (extras and out is not None) else ()
                spans[idx] = (name, t0, t1, parent, extra)

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(spans):
    """Per-layer totals of one round's spans (overhead not included)."""
    n = len(spans)
    child = [0.0] * n
    under_roots = [False] * n
    under_recover = [False] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            under_roots[i] = under_roots[parent] or spans[parent][0] == "roots.find_roots"
            under_recover[i] = under_recover[parent] or spans[parent][0] == "interp.recover_coeffs"

    calls, total, self_s, extra = {}, {}, {}, {}
    scalar_s = batched_s = 0.0
    evals_in_roots = basis_in_recover = gauss_basis = 0
    for i, (name, t0, t1, parent, ex) in enumerate(spans):
        d = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d - child[i]
        if ex:
            acc = extra.setdefault(name, [0] * len(ex))
            for j, v in enumerate(ex):
                acc[j] += v
        if name == "prolate.eval_phi":
            if ex and ex[0]:
                scalar_s += d
            else:
                batched_s += d
        if name in _EVALS and under_roots[i]:
            evals_in_roots += 1
        if name in _BASIS:
            basis_in_recover += under_recover[i]
            gauss_basis += parent >= 0 and spans[parent][0] == "quadrature.gaussian_rule"
    scalar_calls = extra.get("prolate.eval_phi", [0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    def ex(name, j=0):
        return extra.get(name, [0, 0])[j]

    m = {
        "prolate.tridiag_matrix.self_s": self_s.get("prolate.tridiag_matrix", 0.0),
        "prolate.eigensolve.s": total.get("prolate.eigensolve", 0.0),
        "prolate.eigensolve.calls": calls.get("prolate.eigensolve", 0),
        "prolate.solve_channel.calls": calls.get("prolate.solve_channel", 0),
        "prolate.eigensolves_per_solve": ratio(
            calls.get("prolate.eigensolve", 0), calls.get("prolate.solve_channel", 0)
        ),
        "prolate.eval_phi.scalar_calls": scalar_calls,
        "prolate.eval_phi.scalar_s": scalar_s,
        "prolate.eval_phi.batched_calls": calls.get("prolate.eval_phi", 0) - scalar_calls,
        "prolate.eval_phi.batched_s": batched_s,
        "prolate.eval_phi_deriv.calls": calls.get("prolate.eval_phi_deriv", 0),
        "prolate.eval_phi_deriv.s": total.get("prolate.eval_phi_deriv", 0.0),
        "kernels.phase_sum.terms": ex("kernels.phase_sum"),
        "kernels.phase_sum.s": total.get("kernels.phase_sum", 0.0),
        "spectrum.beta_chain.calls": calls.get("spectrum.beta_chain", 0),
        "spectrum.beta_chain.modes": ex("spectrum.beta_chain"),
        "spectrum.beta_chain.self_s": self_s.get("spectrum.beta_chain", 0.0),
        "spectrum.beta_direct.s": total.get("spectrum.beta_direct", 0.0),
        "spectrum.beta_chain.truncations": ex("spectrum.beta_chain", 1),
        "roots.find_roots.calls": calls.get("roots.find_roots", 0),
        "roots.find_roots.roots": ex("roots.find_roots"),
        "roots.find_roots.self_s": self_s.get("roots.find_roots", 0.0),
        "roots.evals_per_root": ratio(evals_in_roots, ex("roots.find_roots")),
        "quadrature.chebyshev_rule.self_s": self_s.get("quadrature.chebyshev_rule", 0.0),
        "quadrature.gaussian_rule.self_s": self_s.get("quadrature.gaussian_rule", 0.0),
        "quadrature.gaussian_rule.basis_builds": gauss_basis,
        "ballquad.integrate_exponential.self_s": self_s.get("ballquad.integrate_exponential", 0.0),
        "ballquad.angular_rule_from_count.s": total.get("ballquad.angular_rule_from_count", 0.0),
        "ballquad.surface_harmonic.calls": calls.get("ballquad.surface_harmonic", 0),
        "ballquad.surface_harmonic.s": total.get("ballquad.surface_harmonic", 0.0),
        "interp.sampling_rule.self_s": self_s.get("interp.sampling_rule", 0.0),
        "interp.recover_coeffs.self_s": self_s.get("interp.recover_coeffs", 0.0),
        "interp.recover_coeffs.terms": ex("interp.recover_coeffs"),
        "interp.basis_builds_per_term": ratio(basis_in_recover, ex("interp.recover_coeffs")),
        "interp.synthesize.self_s": self_s.get("interp.synthesize", 0.0),
        "interp.synthesize.points": calls.get("interp.synthesize", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
    for kname in _BASIS:
        m[kname + ".calls"] = calls.get(kname, 0)
        m[kname + ".entries"] = ex(kname)
        m[kname + ".s"] = total.get(kname, 0.0)
    return m
