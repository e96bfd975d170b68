"""Tests of the benchmark itself, at tiny sizes.

Every workload runs one round end to end and traced; each reference
check accepts the library's answer and rejects a deliberately wrong one;
only the known SNF fault leaves an input out.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import reference as ref
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
run._use_library_source()


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def _result(capsys, argv: list[str]) -> dict:
    code = run.main(argv)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_metrics(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float) and value["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_reports_end_to_end_metrics(workload, quick, capsys):
    result = _result(capsys, ["--workload", workload, "--seconds", "0", "--tiny"])
    _assert_metrics(result["metrics"], BENCHMARK["end_to_end"])


def test_traced_run_reports_every_layer_metric(quick, capsys):
    result = _result(capsys, ["--workload", "group-scaling", "--seconds", "0", "--tiny", "--trace", "1"])
    _assert_metrics(result["metrics"], BENCHMARK["per_layer"])


def test_without_library_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_on_the_seed_only():
    for workload in workloads.WORKLOADS[1:]:
        assert workloads.make_specs(workload, 3) == workloads.make_specs(workload, 3)
        assert workloads.make_specs(workload, 3) != workloads.make_specs(workload, 4)


# ---------------------------------------------------------------------------
# each check accepts the library's answer and rejects a wrong one


def _spec(workload: str, kind: str, field: str | None = None) -> dict:
    return next(
        s for s in workloads.make_specs(workload, 1, tiny=True)
        if s["kind"] == kind and field in (None, s.get("field"))
    )


def _plain(spec: dict):
    op = workloads.bind(spec)
    return workloads.plain_output(spec, op.run())


def _rejects(spec: dict, wrong) -> None:
    with pytest.raises(ref.CheckFailed):
        workloads.check_plain(spec, wrong)


@pytest.fixture(scope="module")
def replay():
    spec = {"kind": "replay"}
    plain = _plain(spec)
    workloads.check_plain(spec, plain)
    return spec, plain


@pytest.mark.parametrize(
    "stage, right, wrong",
    [
        ("abelian-invariants", "patched group: Z/3 + Z^1", "patched group: Z/9 + Z^1"),
        ("abelian-invariants", "braid quotient: Z/6", "braid quotient: Z/3"),
        ("alexander-polynomials", "t^2 - t + 1", "t^2 + t + 1"),
        ("commutant", "order 27", "order 9"),
        ("curve-checks", "27 b^3 - 1: yes", "27 b^3 - 1: no"),
        ("curve-checks", "constant: -4/729", "constant: -4/27"),
        ("patch-sweep", "p^9", "p^6"),
    ],
)
def test_paper_replay_check_rejects_wrong_figures(replay, stage, right, wrong):
    spec, (overall, stages) = replay
    assert right in stages[stage]
    _rejects(spec, (overall, {**stages, stage: stages[stage].replace(right, wrong)}))


def test_paper_replay_check_rejects_reported_mismatch(replay):
    spec, (_, stages) = replay
    _rejects(spec, (False, stages))


def test_braid_and_lift_checks_reject_wrong_images():
    spec = _spec("group-scaling", "braid")
    images, inverse, lift = _plain(spec)
    workloads.check_plain(spec, (images, inverse, lift))
    _rejects(spec, ({**images, "a1": images["a2"], "a2": images["a1"]}, inverse, lift))
    _rejects(spec, (images, {**inverse, "a3": inverse["a3"] + [("a1", 1), ("a1", 1)]}, lift))
    _rejects(spec, (images, inverse, {**lift, "q": lift["p"]}))


@pytest.mark.parametrize("kind", ["tietze-power", "tietze-syllables"])
def test_tietze_check_rejects_a_different_group(kind):
    spec = _spec("group-scaling", kind)
    gens, rels = _plain(spec)
    workloads.check_plain(spec, (gens, rels))
    _rejects(spec, (gens, rels[:-1]))
    _rejects(spec, (gens, [r + r for r in rels]))


def test_coset_check_rejects_wrong_tables():
    spec = _spec("group-scaling", "coset")
    gens, rows = _plain(spec)
    workloads.check_plain(spec, (gens, rows))
    _rejects(spec, (gens, rows[:-1]))
    swapped = copy.deepcopy(rows)
    # exchange the p-images of cosets 0 and 1 (and their inverses): still a
    # permutation action, but p^n no longer fixes every coset
    a, b = swapped[0][0], swapped[1][0]
    swapped[0][0], swapped[1][0] = b, a
    swapped[a][1], swapped[b][1] = 1, 0
    _rejects(spec, (gens, swapped))


def test_smith_form_check_rejects_wrong_factors():
    spec = _spec("group-scaling", "snf")
    d = _plain(spec)
    workloads.check_plain(spec, d)
    k = len(d)
    for i, j, x in [(k - 1, k - 1, d[-1][-1] + 1), (0, k - 1, 1), (0, 0, -d[0][0])]:
        wrong = copy.deepcopy(d)
        wrong[i][j] = x
        _rejects(spec, wrong)


def test_alexander_check_rejects_wrong_polynomial():
    spec = _spec("group-scaling", "alexander")
    coeffs = _plain(spec)
    workloads.check_plain(spec, coeffs)
    _rejects(spec, {**coeffs, 0: coeffs[0] + 1})
    _rejects(spec, {e + 1: c for e, c in coeffs.items()})


@pytest.mark.parametrize("field", ["Q", "Q(eps)"])
def test_resultant_check_rejects_wrong_resultant(field):
    spec = _spec("elimination-scaling", "resultant", field)
    res = _plain(spec)
    workloads.check_plain(spec, res)
    one = (1, 0) if field == "Q(eps)" else 1
    constant = res.get((0, 0), 0 if field == "Q" else (0, 0))
    shifted = tuple(a + b for a, b in zip(constant, one)) if field == "Q(eps)" else constant + one
    _rejects(spec, {**res, (0, 0): shifted})
    _rejects(spec, {(0, j + 1): c for (_, j), c in res.items()})


# ---------------------------------------------------------------------------
# leaving out the SNF inputs that hit the known library fault


@pytest.fixture
def snf_errors(monkeypatch):
    """``smith_normal_form`` raising the error set for a matrix's first
    entry, and computing as usual otherwise."""
    from vankampen import abelian

    errors: dict[int, Exception] = {}
    real = abelian.smith_normal_form

    def fake(M):
        if M.rows()[0][0] in errors:
            raise errors[M.rows()[0][0]]
        return real(M)

    monkeypatch.setattr(abelian, "smith_normal_form", fake)
    return errors


def _snf_ops(firsts: list[int]) -> list[workloads.Op]:
    return [workloads.bind({"kind": "snf", "k": 2, "rows": [[x, 2], [4, 6]]}) for x in firsts]


def _round(ops: list[workloads.Op]) -> run.Tally:
    tally = run.Tally()
    run.measure(ops, 0, tally, hostspeed.HostSpeed())
    return tally


def test_inputs_hitting_the_known_fault_are_left_out(snf_errors):
    snf_errors[1] = RuntimeError(workloads.KNOWN_SNF_FAULT)
    ops, left_out = workloads.leave_out_known_fault(_snf_ops([1, 3, 5]))
    assert left_out == 1 and len(ops) == 2
    tally = _round(ops)
    assert (tally.correct, tally.attempted, tally.failed) == (True, 2, 0)


@pytest.mark.parametrize("error", [
    RuntimeError("SNF certificate failed: not unimodular"),
    ValueError(workloads.KNOWN_SNF_FAULT),
])
def test_other_errors_stay_in_and_fail(snf_errors, error):
    snf_errors[1] = error
    ops, left_out = workloads.leave_out_known_fault(_snf_ops([1, 3]))
    assert left_out == 0 and len(ops) == 2
    tally = _round(ops)
    assert (tally.correct, tally.attempted, tally.failed) == (False, 2, 1)


def test_known_fault_on_too_many_inputs_leaves_none_out(snf_errors):
    firsts = list(range(1, workloads.MAX_LEFT_OUT + 3))
    for x in firsts[1:]:
        snf_errors[x] = RuntimeError(workloads.KNOWN_SNF_FAULT)
    ops, left_out = workloads.leave_out_known_fault(_snf_ops(firsts))
    assert left_out == 0 and len(ops) == len(firsts)
    tally = _round(ops)
    assert (tally.correct, tally.failed) == (False, workloads.MAX_LEFT_OUT + 1)
