"""Command-line front end.

Subcommands: normalize, equal, classify, abelianize, enumerate, analyze-loop,
verify-paper.  Human-readable text by default, JSON behind --json (stable key
order).  Exit codes: 0 success, 1 domain error or failed verification,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import braids, fpgroups, groups, loops
from .verify import paper_verification_suite


class _UsageError(ValueError):
    """Bad option combination; reported with usage text and exit code 2."""


_GROUP_NAMES = {family.cli_name: tag for tag, family in groups._FAMILIES.items()}


def _emit(args: argparse.Namespace, human: str, obj: object) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(human)


def _descriptor_from_args(args: argparse.Namespace) -> groups.GroupDescriptor:
    tag = _GROUP_NAMES[args.group]
    if not groups._FAMILIES[tag].min_size:
        return groups.descriptor_for(tag)
    option = "n" if tag == "central_ext_top" else "k"
    size = getattr(args, option)
    if size is None:
        raise _UsageError(f"--group {args.group} needs --{option}")
    return groups.descriptor_for(tag, size + 1 if option == "n" else size)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_normalize(args: argparse.Namespace) -> int:
    word = braids.parse_word(args.word, args.k)
    form = braids.garside_normal_form(word)
    obj = {
        "strands": form.strands,
        "delta_power": form.delta_power,
        "factors": [list(f.images) for f in form.factors],
        "text": braids.format_form(form),
    }
    _emit(args, braids.format_form(form), obj)
    return 0


def _cmd_equal(args: argparse.Namespace) -> int:
    d = _descriptor_from_args(args)
    parse = groups._FAMILIES[d.tag].parse
    u = parse(args.word1, d.parameter)
    v = parse(args.word2, d.parameter)
    verdict = groups.equal_in_group(d, u, v)
    _emit(
        args,
        f"{'true' if verdict else 'false'} (in {d.describe()})",
        {"equal": verdict, "group": d.describe(), "tag": d.tag},
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    flavor = groups.ORDERED if args.ordered else groups.UNORDERED
    d = groups.classify(args.k, args.i, args.n, flavor)
    human = f"{d.describe()}\n{groups.case_statement(d)}"
    obj = {
        "tag": d.tag,
        "group": d.describe(),
        "k": d.k,
        "i": d.i,
        "n": d.n,
        "flavor": d.flavor,
        "anchor": groups.case_statement(d),
    }
    _emit(args, human, obj)
    return 0


def _presentation_from_spec(spec: str) -> fpgroups.Presentation:
    if ";" in spec:
        return fpgroups.parse_presentation(spec)
    name, sep, size_text = spec.partition(":")
    if not sep:
        raise _UsageError(
            "presentation must be 'name:size' or 'gens: ... ; rels: ...'"
        )
    try:
        size = int(size_text)
    except ValueError:
        raise _UsageError(f"bad presentation size {size_text!r}") from None
    return fpgroups.builtin_presentation(name, size)


def _cmd_abelianize(args: argparse.Namespace) -> int:
    pres = _presentation_from_spec(args.presentation)
    inv = fpgroups.abelianization(pres)
    human = f"{inv} (rank {inv.rank}, torsion {list(inv.torsion)})"
    _emit(args, human, {"group": str(inv), "rank": inv.rank, "torsion": list(inv.torsion)})
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pres = _presentation_from_spec(args.presentation)
    sub_words = tuple(
        fpgroups.parse_abstract_word(chunk, pres.generators)
        for chunk in (args.subgroup or "").split(",")
        if chunk.strip()
    )
    table = fpgroups.todd_coxeter(pres, sub_words, max_cosets=args.max_cosets)
    if table.status == "complete":
        human = f"index {table.num_cosets}"
        obj = {"status": "complete", "index": table.num_cosets}
    else:
        human = f"capped at {args.max_cosets} cosets"
        obj = {"status": "capped", "max_cosets": args.max_cosets}
    _emit(args, human, obj)
    return 0


def _generate_loop(spec: str, frames: int | None) -> loops.ConfigLoop:
    name, sep, params = spec.partition(":")
    if not sep or "=" not in params:
        raise _UsageError("loop spec must look like 'gamma:k=3' or 'h:n=2'")
    key, _, value_text = params.partition("=")
    try:
        value = int(value_text)
    except ValueError:
        raise _UsageError(f"bad loop parameter {params!r}") from None
    if name == "gamma" and key == "k":
        return loops.make_gamma_loop(value, frames)
    if name == "h" and key == "n":
        return loops.make_h_loop(value) if frames is None else loops.make_h_loop(value, frames)
    raise _UsageError(f"unknown loop spec {spec!r}")


def _cmd_analyze_loop(args: argparse.Namespace) -> int:
    if bool(args.generate) == bool(args.file):
        raise _UsageError("give exactly one of --generate or --file")
    if args.generate:
        loop = _generate_loop(args.generate, args.frames)
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                loop = loops.loop_from_json_obj(json.load(fh))
        except OSError as exc:
            raise loops.LoopError(f"cannot read loop file {args.file!r}: {exc.strerror}") from None
        except RecursionError:  # the JSON decoder recurses once per nesting level
            raise loops.LoopError(f"loop file {args.file!r} nests too deeply") from None

    lines: list[str] = []
    obj: dict = {"k": loop.k, "n": loop.n, "frames": loop.num_frames}
    want_braid = args.extract_braid or args.compare is not None
    if args.span:
        dims = sorted({r.dimension for r in loops.span_reports(loop, args.tol)})
        lines.append(f"span dimensions: {' '.join(str(d) for d in dims)}")
        obj["span_dimensions"] = dims
    if want_braid:
        word = loops.extract_braid(loop)
        form = braids.garside_normal_form(word)
        lines.append(f"braid: {braids.format_word(word)}")
        lines.append(f"normal form: {braids.format_form(form)}")
        obj["braid_word"] = braids.format_word(word)
        obj["normal_form"] = braids.format_form(form)
        if args.compare is not None:
            same = form == braids.garside_normal_form(braids.parse_word(args.compare, loop.k))
            lines.append("equal" if same else "not equal")
            obj["compare"] = "equal" if same else "not equal"
    if args.winding:
        w = loops.det_winding(loop, tol=args.tol)
        lines.append(f"winding: {w}")
        obj["winding"] = w
    if not lines:
        raise _UsageError("nothing to do: pass --extract-braid, --winding, --span or --compare")
    _emit(args, "\n".join(lines), obj)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = paper_verification_suite(args.max_k)
    lines = [f"{r.status.upper()} {r.claim_id}: {r.witness}" for r in report.results]
    failed = sum(1 for r in report.results if r.status != "pass")
    total = len(report.results)
    lines.append(f"all {total} claims pass" if not failed else f"{failed} of {total} claims FAILED")
    _emit(args, "\n".join(lines), report.to_json_obj())
    return 0 if report.passes else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confgroups",
        description=(
            "Fundamental groups of affine configuration-space strata: braid "
            "normal forms, finitely presented group tools, loop invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="Garside normal form of a braid word")
    p.add_argument("--k", type=int, required=True, help="strand count")
    p.add_argument("--json", action="store_true")
    p.add_argument("word", help="braid word, e.g. 's1 s2^-1 a[1,3] delta^2'")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equal", help="decide equality of two words in a classified group")
    p.add_argument("--group", choices=sorted(_GROUP_NAMES), required=True)
    p.add_argument("--k", type=int, help="strand count (braid-family groups)")
    p.add_argument("--n", type=int, help="ambient dimension (top unordered case)")
    p.add_argument("--json", action="store_true")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("classify", help="name the fundamental group of a stratum")
    p.add_argument("--k", type=int, required=True, help="number of points")
    p.add_argument("--i", type=int, required=True, help="affine span dimension")
    p.add_argument("--n", type=int, required=True, help="ambient complex dimension")
    flavor = p.add_mutually_exclusive_group(required=True)
    flavor.add_argument("--ordered", action="store_true")
    flavor.add_argument("--unordered", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("abelianize", help="abelianization of a presentation")
    p.add_argument(
        "--presentation",
        required=True,
        help="'artin:4', 'pure_braid_mod_D:3', ... or 'gens: a, b ; rels: ...'",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_abelianize)

    p = sub.add_parser("enumerate", help="Todd-Coxeter coset enumeration")
    p.add_argument("--presentation", required=True)
    p.add_argument("--subgroup", default="", help="comma-separated subgroup words")
    p.add_argument("--max-cosets", type=int, default=10**5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("analyze-loop", help="extract braid/winding invariants from a loop")
    p.add_argument("--generate", help="'gamma:k=3' or 'h:n=2'")
    p.add_argument("--file", help="loop JSON file")
    p.add_argument("--frames", type=int, help="sample count for --generate")
    p.add_argument("--extract-braid", action="store_true")
    p.add_argument("--winding", action="store_true")
    p.add_argument("--span", action="store_true", help="report span dimensions")
    p.add_argument("--compare", help="braid word to compare the extraction against")
    p.add_argument("--tol", type=float, default=1e-8, help="singular-value tolerance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_loop)

    p = sub.add_parser("verify-paper", help="run the full verification report")
    p.add_argument("--max-k", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"confgroups: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"confgroups: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
