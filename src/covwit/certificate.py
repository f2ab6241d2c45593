"""Machine-readable verdicts with witness evidence.

A certificate records, for one input family member, every membership check
(positivity, CP, CCP, PPT per partition, EB, separability) with a verdict in
{"true", "false", "boundary", "inconclusive"} plus numeric evidence, the
witness sweep results, and the tolerances/seed that produced them, so the
JSON output is reproducible byte for byte.
"""

import json
from dataclasses import dataclass, field

from . import __version__
from .linalg import DEFAULT_TOL

VERDICTS = ("true", "false", "boundary", "inconclusive")


def verdict_str(ok, boundary=False):
    if boundary:
        return "boundary"
    return "true" if ok else "false"


@dataclass
class Certificate:
    family: str
    d: int
    coeffs: dict
    checks: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    verdict: str = None

    def add_check(self, name, ok, boundary=False, **evidence):
        self.checks[name] = {
            "verdict": verdict_str(ok, boundary),
            "evidence": evidence,
        }
        return self

    def check_true(self, name):
        return self.checks[name]["verdict"] in ("true", "boundary")

    def to_obj(self):
        obj = {
            "family": self.family,
            "d": self.d,
            "coeffs": self.coeffs,
            "checks": self.checks,
            "witnesses": self.witnesses,
            "tolerances": self.tolerances,
            "seed": self.seed,
            "version": __version__,
        }
        if self.verdict is not None:
            obj["verdict"] = self.verdict
        return obj

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"

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


def tol_dict(tol=DEFAULT_TOL):
    return {"psd_tol": tol.psd_tol, "eq_tol": tol.eq_tol}
