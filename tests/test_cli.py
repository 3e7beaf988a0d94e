"""Command-line interface: output text, JSON mode, exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from confgroups.cli import main
from confgroups.loops import loop_to_json_obj, make_gamma_loop


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_classify_example(capsys):
    code, out, _ = run(capsys, "classify", "--k", "4", "--i", "1", "--n", "2", "--unordered")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "B_4 / ⟨Δ²⟩"
    assert lines[1].startswith("pi_1(C_k^(i,n) with (k,i,n)=(4,1,2))")


def test_equal_example(capsys):
    code, out, _ = run(capsys, "equal", "--group", "top", "--n", "2", "s1 s1", "s2 s2")
    assert code == 0
    assert out == "true (in B_3 / ⟨σ1²=σ2²⟩)\n"


def test_equal_false(capsys):
    code, out, _ = run(capsys, "equal", "--group", "braid", "--k", "3", "s1 s1", "s2 s2")
    assert code == 0
    assert out.startswith("false (in B_3")


def test_analyze_loop_example(capsys):
    code, out, _ = run(
        capsys,
        "analyze-loop", "--generate", "gamma:k=3", "--extract-braid", "--compare", "delta^2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("braid: ")
    assert lines[1] == "normal form: Δ^2"
    assert lines[-1] == "equal"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--k", "3", "s1 s2^-1")
    assert code == 0
    assert out == "Δ^-1 | 1 3 2 ; 2 3 1\n"
    code, out, _ = run(capsys, "normalize", "--k", "3", "s1 s1^-1")
    assert (code, out) == (0, "Δ^0\n")


def test_normalize_compound_tokens(capsys):
    code, out, _ = run(capsys, "normalize", "--k", "3", "a[1,2] a[1,3] a[2,3]")
    assert code == 0
    assert out == "Δ^2\n"


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--presentation", "unordered_top:3", "--subgroup", "s1 s1"
    )
    assert (code, out) == (0, "index 6\n")
    code, out, _ = run(
        capsys, "enumerate", "--presentation", "gens: a, b ; rels:", "--max-cosets", "40"
    )
    assert code == 0
    assert out == "capped at 40 cosets\n"


def test_abelianize(capsys):
    code, out, _ = run(capsys, "abelianize", "--presentation", "braid_mod_delta_sq:3")
    assert (code, out) == (0, "Z/6 (rank 0, torsion [6])\n")
    code, out, _ = run(capsys, "abelianize", "--presentation", "artin:4")
    assert out == "Z (rank 1, torsion [])\n"


def test_analyze_loop_winding_and_span(capsys):
    code, out, _ = run(capsys, "analyze-loop", "--generate", "h:n=2", "--winding", "--span")
    assert code == 0
    assert "span dimensions: 2" in out
    assert "winding: 1" in out


def test_analyze_loop_from_file(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop_to_json_obj(make_gamma_loop(3))), encoding="utf-8")
    code, out, _ = run(capsys, "analyze-loop", "--file", str(path), "--extract-braid")
    assert code == 0
    assert "normal form: Δ^2" in out


def test_equal_integers_letters(capsys):
    code, out, _ = run(capsys, "equal", "--group", "integers", "h^3", "h h h")
    assert (code, out) == (0, "true (in ℤ)\n")
    code, out, _ = run(capsys, "equal", "--group", "integers", "h", "H")
    assert out.startswith("false")


def test_readme_cli_tour_is_what_the_cli_prints(capsys):
    # every `$ confgroups ...` command of the README's console block, followed
    # by the lines it prints
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    chunks = re.search(r"```console\n(.*?)```", text, re.S).group(1).strip().split("\n\n")
    assert len(chunks) == 9
    for chunk in chunks:
        command, *expected = chunk.splitlines()
        assert command.startswith("$ confgroups "), command
        argv = shlex.split(command)[2:]
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 0, argv
        if "..." in expected:  # the lines around the elision, e.g. verify-paper's
            cut = expected.index("...")
            head, tail = expected[:cut], expected[cut + 1 :]
            assert lines[: len(head)] == head and lines[len(lines) - len(tail) :] == tail, argv
        else:
            assert lines == expected, argv


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].startswith("all ") and lines[-1].endswith("claims pass")


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--max-k", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert isinstance(report, list) and report
    for entry in report:
        assert set(entry) == {"claim_id", "paper_anchor", "status", "witness"}
        assert entry["status"] == "pass"


def test_json_mode_is_sorted_and_parseable(capsys):
    code, out, _ = run(capsys, "normalize", "--k", "3", "--json", "s1 s2^-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["text"] == "Δ^-1 | 1 3 2 ; 2 3 1"
    assert list(obj) == sorted(obj)
    code, out, _ = run(
        capsys, "classify", "--k", "3", "--i", "2", "--n", "2", "--unordered", "--json"
    )
    obj = json.loads(out)
    assert obj["tag"] == "central_ext_top"


def test_output_is_deterministic(capsys):
    a = run(capsys, "verify-paper", "--max-k", "4")
    b = run(capsys, "verify-paper", "--max-k", "4")
    assert a == b


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "equal", "--group", "braid", "s1", "s1")
    assert code == 2
    assert "usage" in err and "confgroups: error" in err

    code, _, err = run(capsys, "analyze-loop", "--generate", "gamma=3", "--extract-braid")
    assert code == 2

    code, _, err = run(capsys, "analyze-loop", "--generate", "gamma:k=3")
    assert code == 2  # no action requested

    code, _, err = run(capsys, "analyze-loop", "--extract-braid")
    assert code == 2  # neither --generate nor --file

    code, _, err = run(capsys, "enumerate", "--presentation", "artin")
    assert code == 2  # missing :size


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "classify", "--k", "2", "--i", "2", "--n", "3", "--ordered")
    assert code == 1
    assert "confgroups: error" in err

    code, _, err = run(capsys, "normalize", "--k", "3", "s9")
    assert code == 1

    code, _, err = run(capsys, "normalize", "--k", "3", "s1^1000000000000")
    assert code == 1
    assert "over the limit" in err

    code, _, err = run(capsys, "equal", "--group", "integers", "x", "h")
    assert code == 1

    code, _, err = run(capsys, "abelianize", "--presentation", "nonsense:3")
    assert code == 1

    code, _, err = run(capsys, "analyze-loop", "--generate", "gamma:k=1", "--extract-braid")
    assert code == 1

    # sizes whose half twist or relators exceed the letter budget are refused
    code, _, err = run(capsys, "normalize", "--k", "1000000", "s1")
    assert code == 1
    assert "half twist" in err

    code, _, err = run(capsys, "equal", "--group", "top", "--n", "100000", "s1", "s1")
    assert code == 1

    code, _, err = run(capsys, "abelianize", "--presentation", "pure_braid:10000")
    assert code == 1
    assert "relator letters" in err
