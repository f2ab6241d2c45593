"""covwit benchmark: closed-loop certification workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload w3-sweep --seed 1 --trace 0

One caller in one process asks for certificates one after another, with BLAS
pinned to one thread.  Requests come in rounds of one per (family, d) slot
of the workload, and a run ends at a round boundary, so every run measures
the same mix of sizes.  Every certificate is checked against a verdict
found in set-up by dense linear algebra, and its bytes against a second
call with the same input.

Times are reported at reference speed.  On a shared 2-vCPU KVM guest
(MACHINE.json) the CPU speed moves between levels up to 1.6 times apart,
for under a second to minutes at a time, in wall and in CPU time alike, so
the raw certs_per_s of ten runs of the same code spread by 0.2-0.5 of their
median.  The benchmark therefore times a fixed reference kernel (the kinds
of work a certificate is made of, and no covwit code) before the timed loop
and after every CAL_BLOCK_S of certificate time, for CAL_SHARE of that time
and at least three runs, and divides each certificate's time by the mean of
the two samples around it over REF_KERNEL_S.  A change to the program moves
scaled times in the same proportion as wall times; only the machine's drift
is divided out.  The wall-clock figures are printed beside the scaled ones.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics:
  certs_per_s   certificates over the summed scaled certificate time;
  setup_s       median of three fresh processes, from spawn to ready,
                scaled: imports and one certificate per slot, or for
                cli-cold interpreter start and `import covwit.cli`;
  peak_rss_mb   peak resident memory of the process that made the
                certificates (the CLI processes for cli-cold).
The lines before it also give fail_frac; wall_certs_per_s and wall_setup_s,
unscaled; cert_p50_ms, the median over rounds of the mean scaled
certificate time in a round; and, where the run holds at least 100
certificates, cert_p90_ms, the 90th percentile over single scaled
certificates.  None of these is in BENCHMARK.json.  fail_frac is 0 on a
healthy run.
With --trace 1 the run measures the same loop untraced and then with span
tracing, and reports per-layer metrics per certificate.

    python3 perfbench/run.py --write-spec

rewrites BENCHMARK.json and perfbench/MACHINE.json from the tables below.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 15
SETUP_SAMPLES = 3
P90_MIN_SAMPLES = 100
MAX_UNATTRIBUTED = 0.10
CHILD_TIMEOUT = 120
CAL_BLOCK_S = 0.25  # certificate seconds between speed samples
CAL_SHARE = 0.1     # sampling seconds per certificate second, at least
# Seconds of reference_kernel() on the machine in MACHINE.json at its
# faster speed level; scaled times are times on a machine this fast.
REF_KERNEL_S = 0.007

END_TO_END = (
    # name, unit, better, bound.  Scaled timings still spread by a few per
    # cent on a shared 2-core machine, so they get the largest bound allowed.
    ("certs_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, source, key.  Sources read the traced-phase aggregates of
# spans.Tracer per certificate; "frac" is a span's duration, children
# included, as a share of certificate time, and "max_n" is not averaged.
SPAN_METRICS = (
    ("werner3.catalogue.rows", "rows/cert", "count", "werner3.catalogue.rows"),
    ("werner3.catalogue.self_s", "s/cert", "self", "werner3.catalogue"),
    ("werner3.catalogue.total_s", "s/cert", "total", "werner3.catalogue"),
    ("werner3.catalogue.frac", "frac", "frac", "werner3.catalogue"),
    ("werner3.extremal.calls", "calls/cert", "calls", "werner3.extremal"),
    ("werner3.extremal.self_s", "s/cert", "self", "werner3.extremal"),
    ("werner3.closed_form.calls", "calls/cert", "calls",
     "werner3.closed_form"),
    ("werner3.closed_form.self_s", "s/cert", "self", "werner3.closed_form"),
    ("werner3.block_eig.calls", "calls/cert", "calls", "werner3.block_eig"),
    ("werner3.sweep.self_s", "s/cert", "self", "werner3.sweep"),
    ("werner3.sweep.bytes", "B/cert", "count", "werner3.sweep.bytes"),
    ("quo.catalogue.rows", "rows/cert", "count", "quo.catalogue.rows"),
    ("quo.catalogue.self_s", "s/cert", "self", "quo.catalogue"),
    ("quo.catalogue.total_s", "s/cert", "total", "quo.catalogue"),
    ("quo.catalogue.frac", "frac", "frac", "quo.catalogue"),
    ("quo.extremal.calls", "calls/cert", "calls", "quo.extremal"),
    ("quo.closed_form.calls", "calls/cert", "calls", "quo.closed_form"),
    ("quo.closed_form.self_s", "s/cert", "self", "quo.closed_form"),
    ("quo.dense_psd.calls", "calls/cert", "count", "quo.dense_psd.calls"),
    ("quo.sweep.self_s", "s/cert", "self", "quo.sweep"),
    ("quo.sweep.bytes", "B/cert", "count", "quo.sweep.bytes"),
    ("hh.closed_form.calls", "calls/cert", "calls", "hh.closed_form"),
    ("hh.closed_form.self_s", "s/cert", "self", "hh.closed_form"),
    ("hh.build_psi.calls", "calls/cert", "calls", "hh.build_psi"),
    ("hh.decide.self_s", "s/cert", "self", "hh.decide"),
    ("choi.choi.calls", "calls/cert", "calls", "choi.choi"),
    ("choi.choi.self_s", "s/cert", "self", "choi.choi"),
    ("choi.adjoint.self_s", "s/cert", "self", "choi.adjoint"),
    ("choi.id_tensor.calls", "calls/cert", "calls", "choi.id_tensor"),
    ("choi.id_tensor.self_s", "s/cert", "self", "choi.id_tensor"),
    ("choi.id_tensor.macs", "MAC/cert", "count", "choi.id_tensor.macs"),
    ("twirl.dense_build.calls", "calls/cert", "calls", "twirl.dense_build"),
    ("twirl.dense_build.self_s", "s/cert", "self", "twirl.dense_build"),
    ("twirl.dense_build.bytes", "B/cert", "count", "twirl.dense_build.bytes"),
    ("linalg.eigvalsh.calls", "calls/cert", "calls", "linalg.eigvalsh"),
    ("linalg.eigvalsh.matrices", "matrices/cert", "count",
     "linalg.eigvalsh.matrices"),
    ("linalg.eigvalsh.max_n", "n", "max_n", None),
    ("linalg.eigvalsh.self_s", "s/cert", "self", "linalg.eigvalsh"),
    ("linalg.is_psd.calls", "calls/cert", "calls", "linalg.is_psd"),
    ("linalg.partial_transpose.calls", "calls/cert", "calls",
     "linalg.partial_transpose"),
    ("linalg.partial_transpose.self_s", "s/cert", "self",
     "linalg.partial_transpose"),
    ("certificate.to_json.self_s", "s/cert", "self", "certificate.to_json"),
    ("certificate.bytes", "B/cert", "count", "certificate.to_json.bytes"),
    ("cli.main.self_s", "s/cert", "self", "cli.main"),
)
MODULES = ("werner3", "quo", "hh", "choi", "twirl", "linalg", "certificate",
           "cli")
OTHER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("trace.cert_s", "s/cert"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
) + tuple((f"{m}.self_frac", "frac") for m in MODULES)
PER_LAYER = tuple((n, u) for n, u, _, _ in SPAN_METRICS) + OTHER_METRICS


# ------------------------------------------------------------------ machine

def _blas():
    """(config, threads) of the OpenBLAS numpy loaded, read through ctypes."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for pre, suf in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                         ("openblas_", "")):
            try:
                cfg = getattr(lib, f"{pre}get_config{suf}")
                nth = getattr(lib, f"{pre}get_num_threads{suf}")
            except AttributeError:
                continue
            cfg.restype, nth.restype = ctypes.c_char_p, ctypes.c_int
            return cfg().decode(), nth()
    return "unknown", None


def machine():
    import numpy as np

    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas, threads = _blas()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads,
            "blas_threads_env": BLAS_THREADS}


# -------------------------------------------------------------------- speed

_KERNEL_X = np.random.default_rng(0).standard_normal((16, 16))
_KERNEL_X = _KERNEL_X + _KERNEL_X.T
_eigvalsh = np.linalg.eigvalsh  # bound before tracing can patch it


def reference_kernel():
    """A fixed amount of the kinds of work a certificate is made of:
    interpreted arithmetic, dict and tuple handling, many numpy calls on
    tiny complex arrays, and small dense eigensolves."""
    acc = 0
    for i in range(25000):
        acc += i * i % 7
    table = {}
    for i in range(12000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + 1.5 * i
    for _ in range(150):
        a = np.zeros((4, 4), dtype=complex)
        a[1, 2] = 1.0
        b = np.einsum("ij,jk->ik", a, a.T)
        acc += int(np.kron(a, b).trace().real)
    for _ in range(30):
        acc += int(_eigvalsh(_KERNEL_X @ _KERNEL_X)[0] > 0)
    return acc


def slowness(budget=0.0):
    """How many times longer than at reference speed reference_kernel()
    takes now: the mean of at least three runs and of as many as fit in
    `budget` seconds."""
    times = []
    t_end = time.perf_counter() + budget
    while len(times) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times) / REF_KERNEL_S


# ---------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe(spec, env):
    """Seconds from spawning a fresh interpreter to its "ready" line, and the
    certificate texts it made."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    with proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        rest = proc.stdout.read()
        err = proc.stderr.read()
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-800:]}")
    return dt, json.loads(rest)


def import_times(env, samples=SETUP_SAMPLES):
    """Median cumulative import seconds of covwit.cli and of numpy, from
    `python -X importtime`."""
    cli, npy = [], []
    for _ in range(samples):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import covwit.cli"], cwd=ROOT, env=env,
                           capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT)
        cum = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(cum["covwit.cli"])
        npy.append(cum["numpy"])
    return statistics.median(cli), statistics.median(npy)


def run_cli(cmd, json_path, env):
    """(certificate text, error) of one CLI process."""
    if os.path.exists(json_path):
        os.remove(json_path)
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT)
    if p.returncode:
        return None, f"exit code {p.returncode}: {p.stderr.strip()[-300:]}"
    with open(json_path) as fh:
        return fh.read(), None


# --------------------------------------------------------------------- loop

def guarded(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # a failed certificate is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(pool, seconds, call):
    """Request certificates in pool order, each after the previous returns,
    until `seconds` of certificate time have passed at a round boundary.
    slowness() is sampled before the first request and after every
    CAL_BLOCK_S of certificate time.  Returns per-request
    (seconds, scaled seconds, text, failure or None).  Only the first
    round's texts are kept, for failures() to compare with a second call;
    keeping all of them would make peak memory grow with throughput."""
    size = len(pool.workload.slots)
    out, block = [], []
    spent = block_s = 0.0
    before = slowness()
    while (len(out) + len(block)) % size or spent < seconds:
        i = len(out) + len(block)
        if i == len(pool.requests):
            pool.extend(i + 4 * size)
        req = pool.requests[i]
        t0 = time.perf_counter()
        text, err = call(req)
        dt = time.perf_counter() - t0
        block.append((dt, text if i < size else None, check(req, text, err)))
        spent += dt
        block_s += dt
        if block_s >= CAL_BLOCK_S or (not (i + 1) % size and spent >= seconds):
            after = slowness(CAL_SHARE * block_s)
            scale = 2 / (before + after)
            out.extend((dt, scale * dt, text, msg)
                       for dt, text, msg in block)
            before, block, block_s = after, [], 0.0
    return out


def check(req, text, err):
    """None if the certificate is well formed with the expected verdict."""
    if err:
        return err
    try:
        verdict = json.loads(text).get("verdict")
    except ValueError:
        return "certificate is not JSON"
    if verdict != req.expected:
        return f"verdict {verdict} != expected {req.expected}"
    return None


def failures(pool, results, same_as):
    """Messages of failed requests; same_as maps an index to the text of a
    second identical call, which must match byte for byte."""
    msgs = []
    for i, (_, _, text, msg) in enumerate(results):
        if msg is None and i in same_as and same_as[i] != text:
            msg = "certificate bytes differ between two identical calls"
        if msg:
            req = pool.requests[i]
            msgs.append(f"request {i} ({req.family} d={req.d}): {msg}")
    return msgs


def quantile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100)
                                                               - 1]


# ---------------------------------------------------------------- workloads

class Bench:
    """One run of one workload, with a temporary directory in the checkout."""

    def __init__(self, workload, seed, seconds, tmp):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.env = child_env()
        self.pool = workloads.Pool(workload, seed)
        self.size = len(workload.slots)
        self.json_path = os.path.join(tmp, "cert.json")
        self.notes = []
        self.slot_ms = {}

    # -- calls
    def lib_call(self, req):
        return guarded(workloads.certify, req)

    def cli_call(self, req):
        return run_cli(workloads.cli_command(req, self.json_path),
                       self.json_path, self.env)

    def call(self, req):
        return self.cli_call(req) if self.w.cli else self.lib_call(req)

    # -- set-up
    def warm_up(self):
        """One certificate per (family, d, grid) on inputs outside the timed
        sequence, then the timed inputs for 1.5 times the expected need."""
        warm = workloads.Pool(self.w, self.seed, stream=1)
        spent = 0.0
        for req in warm.extend(self.size):
            t0 = time.perf_counter()
            text, err = self.call(req)
            spent += time.perf_counter() - t0
            if err:
                raise RuntimeError(f"warm-up certificate failed: {err}")
        self.pool.extend(self.size * (int(1.5 * self.seconds / spent) + 2))

    def setup_samples(self):
        """Fresh-process set-up times, wall and scaled, and the probes'
        certificate texts for the first round of the timed sequence."""
        if self.w.cli:
            spec = {"imports": ["covwit.cli"], "requests": []}
        else:
            spec = {"imports": [], "requests": [
                [r.family, r.d, r.grid, list(r.coeffs)]
                for r in self.pool.requests[:self.size]]}
        times, scaled, texts = [], [], []
        before = slowness()
        for _ in range(SETUP_SAMPLES):
            dt, out = probe(spec, self.env)
            after = slowness()
            times.append(dt)
            scaled.append(dt * 2 / (before + after))
            texts.append(out)
            before = after
        if any(t != texts[0] for t in texts):
            self.notes.append("set-up probes disagree on certificate bytes")
        return times, scaled, texts[0]

    def second_calls(self, probe_texts):
        """Index -> text of a second call with the same input: the probes'
        for library workloads, one more CLI process for cli-cold."""
        if not self.w.cli:
            return dict(enumerate(probe_texts))
        return {i: self.cli_call(self.pool.requests[i])[0]
                for i in range(self.size)}

    def record_slots(self, results):
        """Median milliseconds per (family, d) slot, for the summary."""
        for j, (family, d) in enumerate(self.w.slots):
            self.slot_ms[f"{family} d={d}"] = round(1e3 * statistics.median(
                dt for _, dt, _, _ in results[j::self.size]), 3)

    # -- runs
    def untraced(self):
        self.warm_up()
        times, scaled, probe_texts = self.setup_samples()
        results = closed_loop(self.pool, self.seconds, self.call)
        self.record_slots(results)
        msgs = failures(self.pool, results,
                        self.second_calls(probe_texts))
        durations = [dt for _, dt, _, _ in results]
        who = resource.RUSAGE_CHILDREN if self.w.cli else resource.RUSAGE_SELF
        metrics = {
            "certs_per_s": len(durations) / sum(durations),
            "wall_certs_per_s": len(results) / sum(dt for dt, *_ in results),
            "cert_p50_ms": 1e3 * statistics.median(
                statistics.fmean(durations[i:i + self.size])
                for i in range(0, len(durations), self.size)),
            "cert_p90_ms": 1e3 * quantile(durations, 0.9),
            "setup_s": statistics.median(scaled),
            "wall_setup_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        return metrics, len(results), len(results), msgs + self.notes

    def traced(self):
        self.warm_up()
        import_s, import_numpy_s = import_times(self.env)
        plain = closed_loop(self.pool, self.seconds, self.call)
        self.record_slots(plain)
        tracer = spans.Tracer()
        if self.w.cli:
            traced = closed_loop(self.pool, self.seconds,
                                 lambda req: self.cli_traced_call(req, tracer))
            cert_s = sum(dt for dt, *_ in traced)
            covered = tracer.total_s.get("cli.main", 0.0)
            unattributed = 1.0 - covered / cert_s
        else:
            tracer.install()
            try:
                traced = closed_loop(
                    self.pool, self.seconds,
                    lambda req: guarded(tracer.root, workloads.certify, req))
            finally:
                tracer.uninstall()
            cert_s = tracer.total_s["cert"]
            unattributed = tracer.self_s["cert"] / cert_s
        msgs = (failures(self.pool, plain, {})
                + failures(self.pool, traced, {}))
        if not self.w.cli and unattributed > MAX_UNATTRIBUTED:
            msgs.append(f"trace.unattributed_frac {unattributed:.3f} > "
                        f"{MAX_UNATTRIBUTED}")
        n = len(traced)
        # Scaled times, so that drift between the two phases cancels.
        rate = n / sum(scaled for _, scaled, _, _ in traced)
        plain_rate = len(plain) / sum(scaled for _, scaled, _, _ in plain)
        metrics = {}
        for name, _, source, key in SPAN_METRICS:
            if source == "max_n":
                metrics[name] = tracer.max_n
            elif source == "frac":
                metrics[name] = tracer.total_s.get(key, 0.0) / cert_s
            else:
                table = {"calls": tracer.calls, "self": tracer.self_s,
                         "total": tracer.total_s,
                         "count": tracer.counts}[source]
                metrics[name] = table.get(key, 0) / n
        metrics.update({
            "cli.import_s": import_s,
            "cli.import_numpy_s": import_numpy_s,
            "trace.cert_s": cert_s / n,
            "trace.unattributed_frac": unattributed,
            "trace.overhead_frac": 1.0 - rate / plain_rate,
        })
        for m in MODULES:
            own = sum(v for k, v in tracer.self_s.items()
                      if k.startswith(m + "."))
            metrics[f"{m}.self_frac"] = own / cert_s
        return metrics, len(plain) + n, n, msgs

    def cli_traced_call(self, req, tracer):
        spans_path = os.path.join(self.tmp, "spans.json")
        cmd = ([sys.executable, os.path.join(HERE, "cli_traced.py"),
                spans_path] + workloads.cli_args(req, self.json_path))
        res = run_cli(cmd, self.json_path, self.env)
        if res[1] is None:
            with open(spans_path) as fh:
                tracer.merge(json.load(fh))
        return res


# ------------------------------------------------------------------- output

def verdict_mix(pool, n):
    counts = Counter(f"{r.family}:{r.expected}" for r in pool.requests[:n])
    return {k: round(v / n, 4) for k, v in sorted(counts.items())}


def spec():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in PER_LAYER],
    }


def write_spec():
    for path, obj in ((os.path.join(ROOT, "BENCHMARK.json"), spec()),
                      (os.path.join(HERE, "MACHINE.json"), machine())):
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "covwit", "__init__.py")):
        print(f"error: no covwit sources under {SRC}; run from the root of "
              "a covwit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(w, args.seed, args.seconds, tmp)
        if args.trace:
            metrics, attempted, timed, msgs = bench.traced()
            units = dict(PER_LAYER)
        else:
            metrics, attempted, timed, msgs = bench.untraced()
            units = {n: u for n, u, _, _ in END_TO_END}
        reported = set(units)
        units.update(cert_p50_ms="ms", cert_p90_ms="ms",
                     wall_certs_per_s="1/s", wall_setup_s="s")

    print(f"covwit benchmark: workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"certificates: {attempted} attempted, {len(msgs)} failed; "
          f"verdict mix {json.dumps(verdict_mix(bench.pool, timed))}")
    print(f"median scaled ms per slot (untraced): "
          f"{json.dumps(bench.slot_ms)}")
    for msg in msgs:
        print(f"FAIL {msg}")
    if not args.trace and timed < P90_MIN_SAMPLES:
        print(f"  cert_p90_ms not reported: {timed} certificates, fewer "
              f"than {P90_MIN_SAMPLES}")
        del metrics["cert_p90_ms"]
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':<34} {len(msgs) / attempted:.6g} "
          f"({len(msgs)}/{attempted})")
    result = {
        "correct": not msgs,
        "attempted": attempted,
        "failed": len(msgs),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
