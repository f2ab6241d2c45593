"""Span tracing of covwit from the outside, for the traced benchmark run.

Tracing replaces public functions and methods of covwit with timing
wrappers; no source file changes.  A function is replaced in every covwit
module namespace that holds it (werner3.build_V as well as twirl.build_V),
a method on its class, and numpy.linalg.eigvalsh in numpy itself, because
covwit calls it as np.linalg.eigvalsh.  Spans nest on one stack: a span's
self time is its duration minus the durations of the spans it contains.
Only calls inside a root span are recorded, so work the benchmark itself
does between requests with the same functions is not counted.
"""

import sys
import time
from collections import defaultdict

# (owner, attribute, span).  owner is "module" or "module:Class".
TARGETS = (
    ("covwit.werner3", "detect_entanglement_w3", "werner3.sweep"),
    ("covwit.werner3", "_witness_coeff_grid", "werner3.catalogue"),
    ("covwit.werner3", "extremal_w3", "werner3.extremal"),
    ("covwit.werner3", "is_positive_w3", "werner3.closed_form"),
    ("covwit.werner3", "is_cp_w3", "werner3.closed_form"),
    ("covwit.werner3", "is_ccp_w3", "werner3.closed_form"),
    ("covwit.werner3", "ppt_w3", "werner3.closed_form"),
    ("covwit.werner3:Table2Block", "min_margin", "werner3.block_eig"),
    ("covwit.quo", "decide_quo", "quo.sweep"),
    ("covwit.quo", "_witness_rows", "quo.catalogue"),
    ("covwit.quo", "extremal_quo", "quo.extremal"),
    ("covwit.quo", "is_positive_quo", "quo.closed_form"),
    ("covwit.quo", "is_cp_quo", "quo.closed_form"),
    ("covwit.quo", "is_ccp_quo", "quo.closed_form"),
    ("covwit.quo", "ppt_quo", "quo.closed_form"),
    ("covwit.hh", "decide", "hh.decide"),
    ("covwit.hh", "build_psi", "hh.build_psi"),
    ("covwit.hh", "is_positive", "hh.closed_form"),
    ("covwit.hh", "is_cptp", "hh.closed_form"),
    ("covwit.hh", "is_ccp", "hh.closed_form"),
    ("covwit.hh", "is_ppt", "hh.closed_form"),
    ("covwit.hh", "on_boundary", "hh.closed_form"),
    ("covwit.choi:LinMap", "choi", "choi.choi"),
    ("covwit.choi:LinMap", "adjoint", "choi.adjoint"),
    ("covwit.choi:LinMap", "id_tensor", "choi.id_tensor"),
    ("covwit.twirl", "build_V", "twirl.dense_build"),
    ("covwit.twirl", "build_T", "twirl.dense_build"),
    ("covwit.linalg", "is_psd", "linalg.is_psd"),
    ("covwit.linalg", "partial_transpose", "linalg.partial_transpose"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("covwit.certificate:Certificate", "to_json", "certificate.to_json"),
    ("covwit.cli", "main", "cli.main"),
)
ROOTS = ("cert", "cli.main")


def _rows(args, kwargs, result, stack):
    return {"rows": len(result)}


def _sweep_bytes(args, kwargs, result, stack):
    """Stacked witness images: rows x (d^2 x d^2) complex128."""
    d = args[0].d
    rows = result.checks["witness_sweep"]["evidence"]["count"]
    return {"bytes": rows * d**4 * 16}


def _dense_bytes(args, kwargs, result, stack):
    return {"bytes": 16 * args[1] ** 6}


def _macs(args, kwargs, result, stack):
    """einsum aibj,ikjl->akbl: d_id^2 d_in^2 d_out^2 multiply-adds."""
    m, d_id = args[0], args[2]
    return {"macs": (d_id * m.d_in * m.d_out) ** 2}


def _eig_shape(args, kwargs, result, stack):
    shape = args[0].shape
    n = 1
    for k in shape[:-2]:
        n *= k
    return {"matrices": n, "max_n": shape[-1]}


def _psd_in_quo(args, kwargs, result, stack):
    """is_psd called under a quo span is the dense d=2 CP/CCP/PPT path."""
    return {"quo.dense_psd.calls": any(f[1].startswith("quo.")
                                       for f in stack)}


def _cert_bytes(args, kwargs, result, stack):
    return {"bytes": len(result.encode())}


COUNTERS = {
    "werner3.catalogue": _rows,
    "quo.catalogue": _rows,
    "werner3.sweep": _sweep_bytes,
    "quo.sweep": _sweep_bytes,
    "twirl.dense_build": _dense_bytes,
    "choi.id_tensor": _macs,
    "linalg.eigvalsh": _eig_shape,
    "linalg.is_psd": _psd_in_quo,
    "certificate.to_json": _cert_bytes,
}


class Tracer:
    """Per-span-name aggregates: calls, self and total seconds, counters."""

    def __init__(self):
        self.stack = []     # open spans: [seconds in child spans, name]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_n = 0
        self._patches = []

    def wrap(self, name, fn):
        stack, counter = self.stack, COUNTERS.get(name)
        clock, root = time.perf_counter, name in ROOTS

        def span(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
                self.total_s[name] += dt
            if counter is not None:
                # a counter key with a dot names its own metric
                for k, v in counter(args, kwargs, result, stack).items():
                    if k == "max_n":
                        self.max_n = max(self.max_n, v)
                    else:
                        self.counts[k if "." in k else f"{name}.{k}"] += v
            return result

        return span

    def install(self):
        """Patch every target whose module is imported; return self."""
        for owner, attr, name in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            if cls_name:
                holder = getattr(mod, cls_name)
                self._set(holder, attr, self.wrap(name, getattr(holder, attr)))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig)
            for m in list(sys.modules.values()):
                qualname = getattr(m, "__name__", "")
                if m is mod or (qualname.startswith("covwit.")
                                and getattr(m, attr, None) is orig):
                    self._set(m, attr, wrapper)
        return self

    def _set(self, holder, attr, wrapper):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    def root(self, fn, *args):
        """Run fn(*args) as a root span named "cert"; return its result."""
        return self.wrap("cert", fn)(*args)

    def merge(self, other):
        """Add the aggregates of a Tracer.as_dict() from another process."""
        for key in ("calls", "self_s", "total_s", "counts"):
            mine = getattr(self, key)
            for k, v in other[key].items():
                mine[k] += v
        self.max_n = max(self.max_n, other["max_n"])

    def as_dict(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts),
                "max_n": self.max_n}
