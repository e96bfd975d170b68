"""Command-line interface and the end-to-end replay pipeline."""

import ast
import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from vankampen import abelian, cli, curves, pipeline, presentation
from vankampen.cli import main
from vankampen.errors import InternalCheckError
from vankampen.pipeline import STAGE_NAMES, Replay, expected_stage_texts, reproduce_paper
from vankampen.presentation import MetacyclicForm, metacyclic_instances, parse_presentation
from vankampen.words import parse_braid

from make_cli_goldens import GOLDENS

LEMMA = "gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9"


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- pipeline API --------------------------------------------------------------


def test_reproduce_paper_all_stages_match():
    report = reproduce_paper()
    assert report.overall
    assert len(report.stages) == 8
    assert [s.name for s in report.stages] == list(STAGE_NAMES)
    assert all(s.match for s in report.stages)


def test_reproduce_paper_text_and_json_are_stable():
    r1 = reproduce_paper()
    r2 = reproduce_paper()
    assert r1.to_text() == r2.to_text()
    assert r1.to_json() == r2.to_json()
    doc = json.loads(r1.to_json())
    assert doc["overall"] is True
    assert [s["name"] for s in doc["stages"]] == list(STAGE_NAMES)


def test_reproduce_paper_leaves_nothing_for_the_cyclic_collector():
    # braid actions and lifts link to their inverses one way, so reference
    # counting frees a whole replay; DEBUG_SAVEALL keeps whatever a collection finds
    reproduce_paper()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        reproduce_paper()
        gc.collect()
        found = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0


def test_flipped_braid_convention_breaks_cover_lifts(monkeypatch):
    # the rival sign convention reads every braid letter as its inverse
    flipped = {name: str(parse_braid(text, 3).inverse()) for name, text in pipeline.MONODROMY_BRAIDS.items()}
    monkeypatch.setattr(pipeline, "MONODROMY_BRAIDS", flipped)
    report = reproduce_paper()
    assert not report.overall
    by_name = {s.name: s for s in report.stages}
    assert not by_name["cover-lifts"].match
    assert report.to_text().startswith(
        "braid-actions          MISMATCH\n"
        "cover-lifts            MISMATCH\n"
        "zvk-presentation       MISMATCH\n"
        "patch-sweep            MISMATCH\n"
        "commutant              MISMATCH\n"
        "abelian-invariants     ok\n"
        "alexander-polynomials  ok\n"
        "curve-checks           ok\n"
        "overall: FAIL (3/8)\n"
    )


def test_reproduce_paper_single_exponent_still_matches():
    assert reproduce_paper(k=0).overall
    assert reproduce_paper(k=3).overall


def test_reproduce_paper_validates_arguments():
    with pytest.raises(ValueError):
        reproduce_paper(k=9)


def test_expected_stage_texts_cover_every_stage():
    texts = expected_stage_texts()
    assert set(texts) == set(STAGE_NAMES)
    assert all(isinstance(t, str) and t for t in texts.values())


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_replay_computes_each_intermediate_once(monkeypatch):
    calls = Counter()
    want = {
        "braid_action": 3,
        "lift_monodromy": 3,
        "zvk_assemble": 1,
        "tietze_simplify": 2,  # the assembled presentation, then the one distinct patch elimination
        "patch_fiber": 1,
        "singular_parameters": 1,
    }
    for name in want:
        monkeypatch.setattr(pipeline, name, _counting(calls, name, getattr(pipeline, name)))
    monkeypatch.setattr(presentation, "tietze_simplify", _counting(calls, "tietze_simplify", presentation.tietze_simplify))
    for _ in range(2):  # nothing is cached from one call to the next
        calls.clear()
        assert reproduce_paper().overall
        assert calls == want
    calls.clear()
    assert reproduce_paper(k=4).overall
    assert calls["patch_fiber"] == 1


def test_commutant_form_is_read_from_the_patched_group(monkeypatch):
    forms = [f for _, _, f in metacyclic_instances(parse_presentation(LEMMA))]
    assert forms == [MetacyclicForm(9, 4, "p", "g+")]
    other = parse_presentation("gens: p, g+; rels: p^7 g+^-1 p^-1 g+, p^9")
    monkeypatch.setattr(pipeline, "patch_fiber", lambda *args: other)
    stage = Replay(k=0).stage("commutant")
    assert not stage.match
    assert stage.computed.startswith("commutator [p^-1, g+^-1]: p^6\n")
    cyclic = parse_presentation("gens: p, g+; rels: p^9")
    monkeypatch.setattr(pipeline, "patch_fiber", lambda *args: cyclic)
    stage = Replay(k=0).stage("commutant")
    assert stage.computed == "error: InternalCheckError: patched group has no metacyclic form over p, g+"


# -- subcommands ---------------------------------------------------------------


_GOLDENS = json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("golden", _GOLDENS, ids=[f"{i:02d}-{g['argv'][0]}" for i, g in enumerate(_GOLDENS)])
def test_cli_golden(golden, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    try:
        code = main(list(golden["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (golden["exit"], golden["stdout"], golden["stderr"])


def test_cli_lift_monodromy(capsys):
    rc, out, _ = run(capsys, "lift-monodromy", "s2")
    assert rc == 0
    assert out.splitlines() == [
        "action: a1 -> a1, a2 -> a2 a3 a2^-1, a3 -> a2",
        "lift: p -> p q, q -> q",
    ]


def test_cli_zvk_simplified_and_raw(capsys):
    rc, out, _ = run(capsys, "zvk")
    assert rc == 0
    assert out.strip() == "gens: p, g+, g-; rels: p^4 g+^-1 p^-1 g+, p^9, p^7 g-^-1 p^-1 g-"
    rc, raw, _ = run(capsys, "zvk", "--raw")
    assert rc == 0
    assert raw != out
    assert raw.startswith("gens: p, q, g+, g-;")


def test_cli_patch_recovers_two_generator_presentation(capsys):
    rc, out, _ = run(capsys, "patch")
    assert rc == 0
    assert out.strip() == LEMMA
    rc, single, _ = run(capsys, "patch", "--k", "4")
    assert rc == 0
    assert single.strip() == LEMMA


def test_cli_patch_disagreement_is_an_internal_error(monkeypatch, capsys):
    # g- = p^k g+^-1 turns g-^2 into a different relator for each k
    unpatchable = parse_presentation("gens: p, g+, g-; rels: g-^2")
    monkeypatch.setattr(Replay, "simplified", property(lambda self: unpatchable))
    rc, out, err = run(capsys, "patch")
    assert rc == 1
    assert not out
    assert err.startswith("error: patch results disagree across k")


def test_cli_simplify(capsys):
    rc, out, _ = run(capsys, "simplify", "gens: a, b; rels: a b, b^6")
    assert rc == 0
    assert out.strip() == "gens: a; rels: a^6"


def test_cli_abelianize(capsys):
    rc, out, _ = run(capsys, "abelianize", LEMMA)
    assert rc == 0
    assert out.strip() == "Z/3 + Z^1"


@pytest.mark.parametrize(
    "args",
    [("simplify", "gens: p^2, q; rels: q"), ("abelianize", "gens: a b; rels:"), ("abelianize", "gens: 1, a; rels: a^2")],
)
def test_cli_rejects_generator_names_the_word_grammar_cannot_spell(capsys, args):
    rc, out, err = run(capsys, *args)
    assert (rc, out) == (2, "")
    assert err.startswith("error: line 1, column 7: bad generator name ")


def test_cli_coset_enum_index_and_overflow(capsys):
    rc, out, _ = run(capsys, "coset-enum", LEMMA, "--subgroup", "g+")
    assert rc == 0
    assert out.strip() == "index: 9"
    rc, out, _ = run(capsys, "coset-enum", "gens: a, b; rels:", "--max-cosets", "100")
    assert rc == 3
    assert out.strip() == "overflow: budget of 100 cosets exhausted"


def test_cli_coset_enum_closes_order_2756_within_the_default_budget(capsys):
    rc, out, _ = run(capsys, "coset-enum", "gens: p, c; rels: p^53, c^52, c^-1 p c p^-2")
    assert (rc, out) == (0, "index: 2756\n")


def test_cli_reproduce_paper_budget_exhausted_exits_three(monkeypatch, capsys):
    rc, out, _ = run(capsys, "reproduce-paper", "--max-cosets", "20")
    assert rc == 3
    assert "commutant              MISMATCH" in out
    assert "--- commutant: computed ---\noverflow: budget of 20 cosets exhausted\n" in out
    assert "Overflow(" not in out
    rc, out, _ = run(capsys, "reproduce-paper", "--max-cosets", "20", "--format", "structured")
    assert rc == 3
    (commutant,) = [s for s in json.loads(out)["stages"] if s["name"] == "commutant"]
    assert commutant["computed"] == "overflow: budget of 20 cosets exhausted"
    # a stage that fails for another reason still makes it a failed check
    monkeypatch.setattr(pipeline, "singular_parameters", lambda: 1 / 0)
    rc, _, _ = run(capsys, "reproduce-paper", "--max-cosets", "20")
    assert rc == 1


def test_cli_budget_below_one_is_a_usage_error(capsys):
    for command in (["coset-enum", LEMMA], ["reproduce-paper"]):
        for budget in ("-5", "0", "many"):
            with pytest.raises(SystemExit) as info:
                main(command + ["--max-cosets", budget])
            assert info.value.code == 2
            assert "--max-cosets" in capsys.readouterr().err


def test_cli_alexander(capsys):
    rc, out, _ = run(
        capsys,
        "alexander",
        "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2",
        "--weights",
        "s1=1,s2=1",
    )
    assert rc == 0
    assert out.strip() == "t^2 - t + 1"


def test_cli_verify_curves(capsys):
    rc, out, _ = run(capsys, "verify-curves")
    assert rc == 0
    assert "all curve checks passed" in out
    assert "FAIL" not in out


def test_cli_verify_curves_reports_a_stage_error(monkeypatch, capsys):
    def broken():
        raise RuntimeError("elimination failed")

    monkeypatch.setattr(pipeline, "singular_parameters", broken)
    rc, out, err = run(capsys, "verify-curves")
    assert rc == 1
    assert not out
    assert err == "error: RuntimeError: elimination failed\n"


def test_cli_degenerate_elimination_is_an_internal_failure(monkeypatch, capsys):
    def zero(f, g, var):
        return curves.MultiPoly(f.variables, (), f.field)

    monkeypatch.setattr(curves, "resultant", zero)
    with pytest.raises(InternalCheckError, match="degenerate elimination"):
        curves.singular_parameters()
    rc, out, err = run(capsys, "verify-curves")
    assert rc == 1
    assert not out
    assert err == "error: InternalCheckError: degenerate elimination: vanishing resultant in x\n"


def test_cli_certificate_failure_exits_one(monkeypatch, capsys):
    replay = abelian._replay

    def short(M, log, D):  # the log without its last operation breaks U M V = D
        k = max(k for k, steps in enumerate(log) if steps)
        replay(M, log[:k] + [log[k][:-1]] + log[k + 1:], D)

    monkeypatch.setattr(abelian, "_replay", short)
    rc, out, err = run(capsys, "abelianize", "gens: a, b; rels: a^2, b^3")
    assert rc == 1
    assert not out
    assert err == "error: SNF certificate failed: U M V != D\n"
    assert "Traceback" not in err


def test_cli_internal_value_error_exits_one_without_traceback(monkeypatch, capsys):
    replay = abelian._replay

    def malformed(M, log, D):  # a row update that lost all but its kind
        replay(M, [[("sub",)] + log[0]] + log[1:], D)

    monkeypatch.setattr(abelian, "_replay", malformed)
    rc, out, err = run(capsys, "abelianize", "gens: a, b; rels: a^2, b^3")
    assert (rc, out) == (1, "")
    assert err == "error: ValueError: not enough values to unpack (expected at least 2, got 1)\n"


def test_cli_verify_curves_reports_a_wrong_expected_line(monkeypatch, capsys):
    texts = expected_stage_texts()
    wrong = texts["curve-checks"].replace("multiplicity at origin: 9", "multiplicity at origin: 8")
    monkeypatch.setattr(pipeline, "expected_stage_texts", lambda: {**texts, "curve-checks": wrong})
    rc, out, _ = run(capsys, "verify-curves")
    assert rc == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("ok    ")] == [
        "FAIL  chart intersection multiplicity at origin: 9"
        "    (expected: chart intersection multiplicity at origin: 8)",
        "curve checks FAILED",
    ]


def test_cli_verify_curves_fails_on_an_extra_computed_line(monkeypatch, capsys):
    render = pipeline._RENDER["curve-checks"]
    monkeypatch.setitem(pipeline._RENDER, "curve-checks", lambda r: render(r) + "\nan extra check")
    rc, out, _ = run(capsys, "reproduce-paper")
    assert rc == 1
    assert ["curve-checks", "MISMATCH"] in [line.split() for line in out.splitlines()]
    rc, out, _ = run(capsys, "verify-curves")
    assert rc == 1
    assert [line for line in out.splitlines() if not line.startswith("ok    ")] == [
        "FAIL  an extra check    (expected: <none>)",
        "curve checks FAILED",
    ]


def test_cli_k_all_sweeps_every_patch_exponent(capsys):
    assert run(capsys, "patch", "--k", "all") == (0, LEMMA + "\n", "")
    rc, out, _ = run(capsys, "reproduce-paper", "--k", "all")
    assert rc == 0
    assert out == reproduce_paper().to_text()


def test_cli_coset_enum_defines_cosets_for_a_subgroup_of_index_three(capsys):
    rc, out, err = run(capsys, "coset-enum", "gens: a, b; rels: a^2, b^3, a b a b", "--subgroup", "a b")
    assert (rc, out, err) == (0, "index: 3\n", "")


def test_cli_uses_only_public_pipeline_names():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "pipeline"
    }
    used |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pipeline"
        for alias in node.names
    }
    assert used
    assert not [name for name in used if name.startswith("_")]


def test_cli_reproduce_paper_text(capsys):
    rc, out, _ = run(capsys, "reproduce-paper")
    assert rc == 0
    assert "overall: ok (8/8)" in out
    for name in STAGE_NAMES:
        assert name in out


def test_cli_reproduce_paper_structured_deterministic(capsys):
    rc1, out1, _ = run(capsys, "reproduce-paper", "--format", "structured")
    rc2, out2, _ = run(capsys, "reproduce-paper", "--format", "structured")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["overall"] is True


def test_cli_reproduce_paper_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "reproduce-paper", "--format", "structured", "--out", str(target))
    assert rc == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_cli_reproduce_paper_unwritable_out_is_bad_input(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    rc, out, err = run(capsys, "reproduce-paper", "--out", str(target))
    assert rc == 2
    assert not out
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err


def test_cli_simplify_keeps_huge_exponents_as_syllables(capsys):
    rc, out, _ = run(capsys, "simplify", "gens: p; rels: p^100000000")
    assert rc == 0
    assert out == "gens: p; rels: p^100000000\n"


def test_cli_rejects_an_oversized_braid_by_its_size(capsys):
    rc, out, err = run(capsys, "lift-monodromy", "s1^100000000")
    assert rc == 2
    assert not out
    assert err == "error: line 1, column 1: braid has 100000000 letters, more than the limit 1000\n"


def test_cli_errors_use_exit_code_two(capsys):
    rc, out, err = run(capsys, "lift-monodromy", "s9")
    assert rc == 2
    assert not out
    assert err.startswith("error:")
    rc, _, err = run(capsys, "simplify", "gens: a; rels: b")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run(capsys, "alexander", "gens: a; rels: a", "--weights", "a=x")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "weights, message",
    [
        ("a=1,a=2,b=1", "duplicate weight for 'a'"),
        ("a=1,b=1,c=2", "non-generator(s) ['c']"),
        ("a=1,b=x", "weight 'b=x' is not of the form name=integer"),
        ("a=1.5,b=1", "weight 'a=1.5' is not of the form name=integer"),
    ],
)
def test_cli_rejects_ambiguous_or_foreign_weights(capsys, weights, message):
    rc, out, err = run(capsys, "alexander", "gens: a, b; rels: a b^-1", "--weights", weights)
    assert rc == 2
    assert not out
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "command, err",
    [
        (["alexander", "gens: a, b; rels: a b^-1", "--weights", "a=1"],
         "--weights, column 4: missing weight for generator(s) ['b']"),
        (["alexander", "gens: a, b; rels: a b^-1", "--weights", "a=1, c=2,b=1"],
         "--weights, column 6: weight for non-generator(s) ['c']"),
        (["alexander", "gens: a, b; rels: a b^-1", "--weights", "a=1,  b=1.5"],
         "--weights, column 7: weight 'b=1.5' is not of the form name=integer"),
        (["alexander", "gens: a, b; rels: a b^-1", "--weights", " , "],
         "--weights, column 1: empty weight list"),
        (["coset-enum", LEMMA, "--subgroup", "g+, p x"], "--subgroup, column 7: unknown generator 'x'"),
        (["coset-enum", LEMMA, "--subgroup", "p^0"], "--subgroup, column 1: zero exponent on 'p'"),
        # a weight for a non-generator and a missing one: the message names the weight the column points at
        (["alexander", "gens: a, b; rels: a b", "--weights", "a=1,c=2"],
         "--weights, column 5: weight for non-generator(s) ['c']"),
        # an empty name is malformed, not a weight for a non-generator ''
        (["alexander", "gens: a, b; rels: a b", "--weights", "=1,a=1,b=1"],
         "--weights, column 1: weight '=1' is not of the form name=integer"),
        (["alexander", "gens: a, b; rels: a b", "--weights", " =1,a=1,b=1"],
         "--weights, column 2: weight '=1' is not of the form name=integer"),
    ],
)
def test_cli_argument_errors_name_the_argument_and_its_column(capsys, command, err):
    # the column counts within the named argument, not within the presentation
    assert run(capsys, *command) == (2, "", f"error: {err}\n")


def test_cli_bad_k_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["patch", "--k", "11"])
    assert info.value.code == 2
    capsys.readouterr()


def test_importing_the_cli_loads_no_typing():
    # annotations are strings, typing names are imported only for type checkers,
    # and records are plain classes, so neither dataclasses nor what it imports loads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    heavy = ("typing", "dataclasses", "inspect", "ast", "dis")
    code = f"import sys, vankampen.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
