"""Command-line interface: output text, JSON mode, exit codes."""

import contextlib
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confgroups.cli import _GROUP_NAMES, main
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


# sha256 of the verify-paper stdout bytes at the default --max-k 5 (Python 3.11)
_VERIFY_PAPER_SHA256 = {
    (): "20580fc1b2d860b4761d0b5d1f14f542904d5c67396f8b1fc28d5b8973f1a08c",
    ("--json",): "3cae4c306d478f7f0d80f90752d1b6258da3a84868153404786fa5724439e317",
}


def test_verify_paper_output_bytes_are_pinned(capsys):
    for flags, digest in _VERIFY_PAPER_SHA256.items():
        code, out, _ = run(capsys, "verify-paper", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, flags


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

    code, _, err = run(capsys, "normalize", "--k", "3", "s²")  # a digit int() cannot read
    assert code == 1
    assert "unrecognised word token 's²'" in err

    code, _, err = run(capsys, "equal", "--group", "integers", "x", "h")
    assert code == 1

    code, _, err = run(capsys, "equal", "--group", "integers", "h^x", "h")
    assert code == 1
    assert "bad exponent in token 'h^x'" in err

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


def test_generated_loop_frames_and_size_limit(capsys):
    # --frames 0 is passed through and refused, as for gamma
    for spec in ("h:n=2", "gamma:k=3"):
        code, _, err = run(capsys, "analyze-loop", "--generate", spec, "--frames", "0", "--span")
        assert code == 1
        assert "resolution below floor" in err
    # sizes of at least 10**15 elements are refused before numpy allocates them
    for extra in (["h:n=2", "--frames", str(10**15)], ["gamma:k=3", "--frames", str(10**15)],
                  ["gamma:k=100000000"], ["h:n=100000000"]):
        code, _, err = run(capsys, "analyze-loop", "--generate", *extra, "--span")
        assert code == 1
        assert "coordinates exceed the limit of 10000000" in err


def test_unreadable_loop_files_and_bad_tolerances_exit_1(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(capsys, "analyze-loop", "--file", str(path), "--extract-braid")
        assert (code, out) == (1, "")
        assert err.startswith(f"confgroups: error: cannot read loop file {str(path)!r}: ")
        assert len(err.splitlines()) == 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "analyze-loop", "--file", str(deep), "--extract-braid")
    assert (code, out) == (1, "")
    assert err == f"confgroups: error: loop file {str(deep)!r} nests too deeply\n"
    for tol in ("nan", "-1", "1", "inf"):
        for action in ("--span", "--winding"):
            code, out, err = run(
                capsys, "analyze-loop", "--generate", "h:n=2", action, "--tol", tol
            )
            assert (code, out) == (1, "")
            assert err == (
                f"confgroups: error: span tolerance must satisfy 0 <= tol < 1, got {float(tol)}\n"
            )


# ---------------------------------------------------------------------------
# argv fuzzing: every subcommand exits 0, 1 or 2 and nothing else escapes.
# Sizes stay small (strands <= 8, builtin sizes <= 6, --max-cosets <= 1000,
# frames <= 512) so no example builds a large word or table.

_SMALL_INT = st.integers(-2, 8).map(str)
_FUZZ_WORD = st.one_of(
    st.sampled_from(["", "s1", "s1 s2^-1", "delta^2", "a[1,2] a[1,3]^-1", "h^3 H", "s9", "s²"]),
    st.text(alphabet="sa[],^-12 hHdelt", max_size=6),
)
_PRESENTATION = st.sampled_from(
    [f"{name}:{size}" for name in ("artin", "pure_braid", "pure_braid_mod_D",
                                   "braid_mod_delta_sq", "unordered_top", "nonsense")
     for size in ("1", "3", "6")]
    + ["artin", "artin:x", "gens: a, b ; rels: a b A B", "gens: a ; rels: a a a", "gens: ; rels:"]
)
# per subcommand: option (or positional) -> its values, or None for a flag;
# options in _USUAL are given nine times in ten, --file (which clashes with
# --generate) once in ten, the others half the time
_OPTIONS = {
    "normalize": {"--k": _SMALL_INT, "--json": None, "word": _FUZZ_WORD},
    "equal": {
        "--group": st.sampled_from(sorted(_GROUP_NAMES) + ["bogus"]),
        "--k": _SMALL_INT, "--n": st.integers(-1, 5).map(str), "--json": None,
        "word1": _FUZZ_WORD, "word2": _FUZZ_WORD,
    },
    "classify": {
        "--k": _SMALL_INT, "--i": _SMALL_INT, "--n": _SMALL_INT,
        "--ordered": None, "--unordered": None, "--json": None,
    },
    "abelianize": {"--presentation": _PRESENTATION, "--json": None},
    "enumerate": {
        "--presentation": _PRESENTATION, "--json": None,
        "--subgroup": st.sampled_from(["", "s1 s1", "a, b", "s1, s2 s2", "a[1,2]", "x"]),
    },
    "analyze-loop": {
        "--generate": st.sampled_from(["gamma:k=2", "gamma:k=3", "gamma:k=8", "h:n=1",
                                       "h:n=3", "gamma:k=-1", "h:n=x", "gamma", "x:k=3"]),
        "--file": st.sampled_from(["no/such/loop.json", "."]),
        "--frames": st.sampled_from(["-1", "0", "64", "200", "512", "x"]),
        "--tol": st.sampled_from(["1e-8", "0", "0.5", "nan", "-1", "1", "inf", "x"]),
        "--compare": _FUZZ_WORD,
        "--extract-braid": None, "--winding": None, "--span": None, "--json": None,
    },
    "verify-paper": {"--max-k": st.sampled_from(["-1", "2", "3", "x"]), "--json": None},
}
_USUAL = {"--k", "--i", "--n", "--group", "--unordered", "--presentation", "--generate",
          "word", "word1", "word2"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command == "enumerate":
        argv += ["--max-cosets", draw(st.sampled_from(["-1", "0", "1", "40", "1000"]))]
    for name, values in _OPTIONS[command].items():
        if draw(st.integers(0, 9)) < (9 if name in _USUAL else 1 if name == "--file" else 5):
            if name.startswith("--"):
                argv.append(name)
            if values is not None:
                argv.append(draw(values))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--json", "--bogus", "x", "-k"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["analyze-loop", "--file", "no/such/loop.json", "--extract-braid"])
@example(["analyze-loop", "--file", ".", "--extract-braid"])
@example(["analyze-loop", "--generate", "h:n=2", "--span", "--tol", "nan"])
def test_cli_argv_fuzz_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("confgroups: error: "), argv
