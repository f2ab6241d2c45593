"""Machine-readable verdicts with witness evidence.

A certificate records, for one input family member, every membership check
(positivity, CP, CCP, PPT per partition, EB, separability) with a verdict in
{"true", "false", "boundary"} (from `linalg.classify`) plus the numeric
evidence it was classified by, the witness sweep results, and the rule's
constants PSD_TOL and EQ_TOL, so the JSON output is reproducible byte for byte.
"""

import json
from dataclasses import dataclass, field

from . import __version__
from .linalg import EQ_TOL, PSD_TOL

VERDICTS = ("true", "false", "boundary")


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
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

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
