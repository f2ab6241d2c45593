"""Tests of the benchmark itself; the workloads run at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(REPO, "perfbench")
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(args, cwd=REPO):
    p = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    return p, p.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny(name, trace):
    p, lines = bench(["--workload", name, "--seed", "3", "--seconds",
                      "0.001", "--trace", str(trace)])
    assert p.returncode == 0, p.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, p.stdout
    assert result["attempted"] >= len(workloads.WORKLOADS[name].slots)
    names = ([n for n, _ in run.PER_LAYER] if trace
             else [n for n, *_ in run.END_TO_END])
    assert list(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif name == "hh-eb":
        calls = {k: m["value"] for k, m in result["metrics"].items()
                 if k.endswith(".calls")}
        assert calls["hh.build_psi.calls"] > 0
        assert all(v == 0 for k, v in calls.items()
                   if k.startswith(("werner3.", "quo.")))


def test_flipped_expected_verdict_is_a_failure(monkeypatch, tmp_path):
    draw = workloads.draw

    def flipped(*args, **kwargs):
        req = draw(*args, **kwargs)
        other = workloads.NOT_EB if req.expected == workloads.EB \
            else workloads.EB
        return workloads.Request(req.family, req.d, req.grid, req.coeffs,
                                 other)

    monkeypatch.setattr(workloads, "draw", flipped)
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", os.path.join(REPO, "src"))
    b = run.Bench(workloads.WORKLOADS["hh-eb"], 3, 0.001, str(tmp_path))
    metrics, attempted, _, msgs = b.untraced()
    assert attempted >= 3
    assert len(msgs) / attempted > 0
    assert all("!= expected" in m for m in msgs)


def test_closed_loop_scales_by_the_speed_around_each_block(monkeypatch):
    # The machine runs at half the reference speed, then at full speed.
    samples = iter([2.0, 2.0, 1.0, 1.0])
    monkeypatch.setattr(run, "slowness", lambda budget=0.0: next(samples))
    monkeypatch.setattr(run, "CAL_BLOCK_S", 0.0)
    pool = workloads.Pool(workloads.WORKLOADS["hh-eb"], 1)
    out = run.closed_loop(
        pool, 1e-9, lambda req: (json.dumps({"verdict": req.expected}), None))
    assert [msg for *_, msg in out] == [None, None, None]
    scales = [scaled / dt for dt, scaled, _, _ in out]
    assert scales == pytest.approx([0.5, 2 / 3, 1.0])


def test_same_seed_same_inputs():
    w = workloads.WORKLOADS["quo-sep"]
    a = workloads.Pool(w, 7).extend(8)
    b = workloads.Pool(w, 7).extend(4)
    assert workloads.Pool(w, 7).extend(8) == a
    assert a[:4] == b
    assert workloads.Pool(w, 8).extend(8) != a


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    p, lines = bench(["--workload", "hh-eb", "--seed", "1", "--seconds",
                      "1", "--trace", "0"], cwd=tmp_path)
    assert p.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_matches_tables():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


def test_tracer_patches_every_namespace_and_restores():
    from covwit import choi, twirl, werner3

    orig, adjoint = twirl.build_V, choi.LinMap.adjoint
    state = werner3.rho_t(3, 1.0)[0]
    tracer = spans.Tracer().install()
    try:
        assert werner3.build_V is twirl.build_V is not orig
        assert choi.LinMap.adjoint is not adjoint
        werner3.invariant_matrix(state)  # outside a root span: not recorded
        tracer.root(werner3.invariant_matrix, state)
    finally:
        tracer.uninstall()
    assert werner3.build_V is twirl.build_V is orig
    assert choi.LinMap.adjoint is adjoint
    assert tracer.calls["twirl.dense_build"] == 4
    assert tracer.counts["twirl.dense_build.bytes"] == 4 * 16 * 3**6
