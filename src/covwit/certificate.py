"""Machine-readable verdicts with witness evidence.

A certificate records, for one input family member, every membership check
(positivity, CP, CCP, PPT per partition, EB, separability) with a verdict in
{"true", "false", "boundary"} (from `linalg.classify`) plus the numeric
evidence it was classified by, the witness sweep results, and the rule's
constants PSD_TOL and EQ_TOL, so the JSON output is reproducible byte for byte.

`to_json` writes exactly `json.dumps(obj, sort_keys=True, indent=2)` plus a
newline, through its own writer: `indent` makes `json` use its pure-Python
encoder, and the writer lays out str-keyed dicts, lists, finite floats and
strings itself, with the C string encoder `json.dumps` uses.
"""

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import __version__
from .linalg import EQ_TOL, PSD_TOL

VERDICTS = ("true", "false", "boundary")


def _write(x, indent=""):
    """x as `json.dumps(x, sort_keys=True, indent=2)` lays it out at this
    indent.  Lists, str-keyed dicts, finite floats and strs are written here.
    Anything else goes to json, re-indented (JSON text holds no raw newline),
    and so does a dict or list whose layout raised TypeError: a non-str key,
    or an item that json refuses too."""
    t = type(x)
    if t is float and math.isfinite(x):
        return float.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is dict or t is list:
        o, c = "{}" if t is dict else "[]"
        if not x:
            return o + c
        inner = indent + "  "
        try:
            items = ([encode_basestring_ascii(k) + ": " + _write(x[k], inner)
                      for k in sorted(x)] if t is dict
                     else [_write(v, inner) for v in x])
            return (o + "\n" + inner + (",\n" + inner).join(items) + "\n"
                    + indent + c)
        except TypeError:
            pass
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + indent)


@dataclass
class Certificate:
    family: str
    d: int
    coeffs: dict
    checks: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    tolerances: dict = field(init=False, default_factory=lambda: {
        "psd_tol": PSD_TOL, "eq_tol": EQ_TOL})
    verdict: str = None

    def add_check(self, name, verdict, **evidence):
        self.checks[name] = {"verdict": verdict, "evidence": evidence}

    def check_true(self, name):
        return self.checks[name]["verdict"] in ("true", "boundary")

    def to_json(self):
        obj = {k: v for k, v in vars(self).items() if v is not None}
        obj["version"] = __version__
        return _write(obj) + "\n"

    def summary(self):
        lines = [f"family: {self.family}  d: {self.d}"]
        for k in sorted(self.checks):
            ch = self.checks[k]
            ev = ", ".join(f"{a}={b}" for a, b in sorted(ch["evidence"].items()))
            lines.append(f"  {k:<14} {ch['verdict']:<8} {ev}")
        if self.witnesses:
            worst = min(w["min_eig"] for w in self.witnesses)
            lines.append(f"  witnesses: {len(self.witnesses)}, "
                         f"worst min_eig = {worst:.6e}")
        if self.verdict is not None:
            lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)
