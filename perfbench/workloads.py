"""The benchmark's workloads: seeded queries, how each runs, how each is checked.

Every workload is a fixed list of query shapes (strand counts, lengths,
frame counts, query kinds), always run in the same order, so the memo
tables of confgroups warm up alike whatever the seed.  The seed picks the
random content of each query, so every seed asks for the same amount of
work in distribution.  ``ops(workload, seed)`` builds each query just before
it runs, outside its timing, so generated inputs never pile up in memory.

One op is one user query, text in and answer out: it parses or reads its
inputs through the public API, asks its question and returns the answer.
Expected answers come from ``oracle`` and from closed forms, never from the
package under test.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import confgroups as cg
import oracle

# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    kind: str
    inputs: tuple
    expected: object
    run: Callable  # run(tracer, *inputs) -> answer
    check: Callable  # check(answer, expected) -> None, or what was wrong


def _same(answer, expected):
    return None if answer == expected else f"got {answer!r}, expected {expected!r}"


def _parse(tr, tag: str, k: int, text: str):
    with tr.span("braids.parse"):
        if tag in ("pure_braid", "pure_braid_mod_D"):
            word = cg.parse_pure_word(text, k)
        else:
            word = cg.parse_word(text, k, allow_compound=tag != "central_ext_top")
    tr.add("braids.parse.letters_out", len(word))
    return word


# ---------------------------------------------------------------------------
# word tokens: ("s", i, e) is s_i^e, ("d", 0, e) is delta^e, ("a", (i, j), e) is a[i,j]^e

PURE_TAGS = ("pure_braid", "pure_braid_mod_D")
BRAID_TAGS = ("braid", "pure_braid", "braid_mod_delta_sq", "pure_braid_mod_D", "central_ext_top")


def render(tokens) -> str:
    out = []
    for kind, arg, e in tokens:
        base = f"s{arg}" if kind == "s" else "delta" if kind == "d" else f"a[{arg[0]},{arg[1]}]"
        out.append(base if e == 1 else f"{base}^{e}")
    return " ".join(out)


def _token_letters(token, k: int):
    kind, arg, e = token
    if kind == "s":
        return oracle.power([(arg, 1)], e)
    if kind == "d":
        return oracle.power(oracle.staircase(k), e)
    return oracle.power(oracle.pure_letters(*arg), e)


def braid_letters(tokens, k: int):
    return [x for t in tokens for x in _token_letters(t, k)]


def _inverse_tokens(tokens):
    return [(kind, arg, -e) for kind, arg, e in reversed(tokens)]


def _pairs(k: int):
    return [(i, j) for j in range(2, k + 1) for i in range(1, j)]


def invariant(tag: str, k: int, tokens):
    """An invariant of the group element, computed by the benchmark alone.

    Equal elements have equal invariants; the false pairs are built so that
    theirs differ.
    """
    if tag in PURE_TAGS:
        vec = dict.fromkeys(_pairs(k), 0)
        for _, pair, e in tokens:
            vec[pair] += e
        values = tuple(vec.values())
        if tag == "pure_braid_mod_D":
            values = tuple(v - values[0] for v in values)
        return values
    letters = braid_letters(tokens, k)
    if tag == "central_ext_top":
        return oracle.exponent_sum(letters), oracle.star_image(letters, k)
    total = oracle.exponent_sum(letters)
    if tag == "braid_mod_delta_sq":
        total %= k * (k - 1)
    return total, oracle.perm_image(letters, k)


def _s(i: int, e: int = 1):
    return ("s", i, e)


def _a(pair, e: int = 1):
    return ("a", pair, e)


def _proven(rels, k: int, group: str) -> list:
    for r in rels:
        if not oracle.braids_equal(braid_letters(r, k), [], k):
            raise AssertionError(f"relator {render(r)} is not trivial in {group}")
    return rels


@functools.cache
def relators(tag: str, k: int) -> list:
    """Relators of the group's own presentation, as token lists.

    Each relator of B_k or PB_k is proven trivial with the Artin action
    before use; Delta^2 and the full twist are killed by definition in the
    quotients; the top unordered relators are the defining ones of
    B_(n+1)/<s_1^2=...=s_n^2> over the geometric generators.
    """
    if tag in ("braid", "braid_mod_delta_sq"):
        delta = ("d", 0, 1)
        rels = [[_s(i), _s(j), _s(i, -1), _s(j, -1)] for i in range(1, k) for j in range(i + 2, k)]
        for i in range(1, k - 1):
            rels.append([_s(i), _s(i + 1), _s(i), _s(i + 1, -1), _s(i, -1), _s(i + 1, -1)])
            rels.append([_s(i + 1), _s(i), _s(i + 1), _s(i, -1), _s(i + 1, -1), _s(i, -1)])
        rels += [[delta, _s(i), ("d", 0, -1), _s(k - i, -1)] for i in range(1, k)]
        rels += [[_a((i, j))] + _inverse_tokens([_s(x, e) for x, e in oracle.pure_letters(i, j)])
                 for i, j in _pairs(k)]
        rels.append([delta] + _inverse_tokens([_s(x, e) for x, e in oracle.staircase(k)]))
        rels = _proven(rels, k, f"B_{k}")
        if tag == "braid_mod_delta_sq":
            rels += [[("d", 0, 2)], [("d", 0, -2)], [delta, delta]]
        return rels
    if tag in PURE_TAGS:
        pairs = _pairs(k)
        rels = [[_a(p), _a(q), _a(p, -1), _a(q, -1)]
                for (p, q) in itertools.combinations(pairs, 2)
                if p[1] < q[0] or q[1] < p[0] or p[0] < q[0] < q[1] < p[1] or q[0] < p[0] < p[1] < q[1]]
        for i, j, m in itertools.combinations(range(1, k + 1), 3):
            p1 = [_a((i, j)), _a((i, m)), _a((j, m))]
            p2 = [_a((i, m)), _a((j, m)), _a((i, j))]
            p3 = [_a((j, m)), _a((i, j)), _a((i, m))]
            rels += [p1 + _inverse_tokens(p2), p2 + _inverse_tokens(p3)]
        full_twist = [_a(p) for p in pairs]
        rels += [full_twist + [_a(p)] + _inverse_tokens(full_twist) + [_a(p, -1)] for p in pairs]
        rels = _proven(rels, k, f"PB_{k}")
        if tag == "pure_braid_mod_D":
            rels += [full_twist, _inverse_tokens(full_twist)]
        return rels
    if tag == "central_ext_top":
        rels = []
        for i, j in itertools.permutations(range(1, k), 2):
            rels.append([_s(i), _s(j), _s(i), _s(j, -1), _s(i, -1), _s(j, -1)])
            rels.append([_s(i, 2), _s(j, -2)])
        return rels
    raise ValueError(f"no relators for {tag!r}")


def random_word(rng: random.Random, tag: str, k: int, tokens: int):
    """Random tokens in a fixed mix, so that words of one length expand to
    about the same number of letters whatever the seed: a tenth squared
    (three twentieths for the top case), and for the braid tags 3% a[i,j]
    and 2% delta tokens.  Pure words use the generators a[i,j], which
    expand to 1 to 2k-3 letters, in turn from a random start, so each
    appears about equally often."""
    if tag in PURE_TAGS:
        pairs = _pairs(k)
        start = rng.randrange(len(pairs))
        seq = [pairs[(start + t) % len(pairs)] for t in range(tokens)]
        rng.shuffle(seq)
        doubled = round(0.1 * tokens)
        word = [("a", pair, rng.choice((1, -1)) * (2 if t < doubled else 1))
                for t, pair in enumerate(seq)]
    else:
        top = tag == "central_ext_top"
        pure, deltas = (0, 0) if top else (round(0.03 * tokens), round(0.02 * tokens))
        squared = round((0.15 if top else 0.1) * tokens)
        word = [("s", rng.randrange(1, k), rng.choice((1, -1)) * (2 if t < squared else 1))
                for t in range(tokens - pure - deltas)]
        word += [("a", rng.choice(_pairs(k)), rng.choice((1, -1))) for _ in range(pure)]
        word += [("d", 0, rng.choice((1, -1))) for _ in range(deltas)]
    rng.shuffle(word)
    return word


def _insert_relators(rng: random.Random, tag: str, k: int, tokens, count: int):
    out = list(tokens)
    rels = relators(tag, k)
    for _ in range(count):
        pos = rng.randrange(len(out) + 1)
        if rng.random() < 0.25:
            t = random_word(rng, tag, k, 1)[0]
            piece = [t, (t[0], t[1], -t[2])]
        else:
            piece = rng.choice(rels)
        out[pos:pos] = piece
    return out


def _defect(rng: random.Random, tag: str, k: int):
    if tag in PURE_TAGS:
        return ("a", rng.choice(_pairs(k)), rng.choice((1, -1)))
    return ("s", rng.randrange(1, k), rng.choice((1, -1, 2, -2)))


def word_pair(rng: random.Random, tag: str, k: int, tokens: int, equal: bool):
    """Two word texts over the tag's alphabet that are equal, or provably not."""
    u = random_word(rng, tag, k, tokens)
    v = _insert_relators(rng, tag, k, u, max(2, tokens // 20))
    if not equal:
        pos = rng.randrange(len(v) + 1)
        v[pos:pos] = [_defect(rng, tag, k)]
    if (invariant(tag, k, u) == invariant(tag, k, v)) != equal:
        raise AssertionError(f"generated {tag} pair breaks its own invariant")
    return render(u), render(v)


# ---------------------------------------------------------------------------
# word-problem queries


def run_equal(tr, tag: str, k: int, u_text: str, v_text: str) -> bool:
    d = cg.descriptor_for(tag, k)
    u = _parse(tr, tag, k, u_text)
    v = _parse(tr, tag, k, v_text)
    with tr.span(f"groups.equal_in_group.{tag}"):
        return cg.equal_in_group(d, u, v)


def run_normalize(tr, tag: str, k: int, text: str) -> str:
    """The canonical form as text: the Garside form for braid-family tags,
    "twist | permutation" for the top unordered case."""
    word = _parse(tr, tag, k, text)
    if tag == "braid":
        with tr.span("braids.garside_normal_form"):
            form = cg.garside_normal_form(word)
        tr.add("braids.garside_normal_form.letters_in", len(word))
        tr.add("braids.garside_normal_form.factors_out", len(form.factors))
    else:
        d = cg.descriptor_for(tag, k)
        with tr.span("groups.element_from_word"):
            form = cg.element_from_word(d, word).payload
        if tag == "central_ext_top":
            return f"{form.twist} | {form.perm}"
    with tr.span("braids.format_form"):
        return cg.format_form(form)


def form_facts(tag: str, k: int, tokens):
    """What a correct canonical form of the word must show, computed here:
    (exponent sum, permutation image) for Garside forms, reduced mod k(k-1)
    when Delta^2 is killed; (twist, star image) for the top unordered case."""
    letters = braid_letters(tokens, k)
    if tag == "central_ext_top":
        perm = oracle.star_image(letters, k)
        return (oracle.exponent_sum(letters) - oracle.inversions(perm)) // 2, perm
    total = oracle.exponent_sum(letters)
    if tag in ("braid_mod_delta_sq", "pure_braid_mod_D"):
        total %= k * (k - 1)
    return total, oracle.perm_image(letters, k)


def check_normalize(answer: str, expected) -> str | None:
    tag, k, facts = expected
    head, _, rest = answer.partition(" | ")
    factors = [tuple(int(x) - 1 for x in f.split()) for f in rest.split(" ; ")] if rest else []
    for f in factors:
        if sorted(f) != list(range(k)):
            return f"{answer!r}: factor {f} is not a permutation of {k} points"
    if tag == "central_ext_top":
        got = (int(head), factors[0] if factors else None)
        return None if got == facts else f"{answer!r}: (twist, perm) {got} != {facts}"
    if not head.startswith("Δ^"):
        return f"{answer!r} is not a Garside form"
    delta = int(head[2:])
    perm = oracle.reversal(k) if delta % 2 else oracle.identity(k)
    for f in factors:
        if f in (oracle.identity(k), oracle.reversal(k)):
            return f"{answer!r}: factor {f} is trivial or the half twist"
        perm = oracle.compose(perm, f)
    total = delta * k * (k - 1) // 2 + sum(oracle.inversions(f) for f in factors)
    if tag in ("braid_mod_delta_sq", "pure_braid_mod_D"):
        total %= k * (k - 1)
    return None if (total, perm) == facts else f"{answer!r}: (exponent sum, perm) {(total, perm)} != {facts}"


def _word_op(rng: random.Random, tag: str, k: int, kind: str, tokens: int) -> Op:
    if kind == "normalize":
        word = random_word(rng, tag, k, tokens)
        return Op(f"normalize/{tag}", (tag, k, render(word)), (tag, k, form_facts(tag, k, word)),
                  run_normalize, check_normalize)
    equal = kind == "equal_true"
    u, v = word_pair(rng, tag, k, tokens, equal)
    return Op(f"equal/{tag}", (tag, k, u, v), equal, run_equal, _same)


# token counts per tag, 12 queries each, consumed in order by (k, kind):
# the longest words on the fewest strands, where the quadratic parse
# dominates, the shortest on six strands, where combing dominates; equality
# combs two words, so normalize queries get the longest; pure-braid tokens
# expand to several letters each
S_TOKENS = (1000, 300, 250, 220, 180, 150, 120, 100, 80, 65, 56, 50)
PURE_TOKENS = (300, 160, 130, 110, 95, 85, 75, 65, 60, 55, 52, 50)
WORD_KINDS = ("normalize", "equal_true", "equal_false")


def _words_small_k_shapes():
    shapes = []
    for tag in BRAID_TAGS:
        sizes = iter(PURE_TOKENS if tag in PURE_TAGS else S_TOKENS)
        shapes += [(tag, k, kind, next(sizes)) for k in range(3, 7) for kind in WORD_KINDS]
    return shapes


# ---------------------------------------------------------------------------
# loop queries


def _read(tr, obj: dict):
    with tr.span("loops.loop_from_json_obj"):
        loop = cg.loop_from_json_obj(obj)
    tr.add("loops.loop_from_json_obj.frames_in", loop.num_frames)
    return loop


def run_loop_braid(tr, obj: dict, delta_power: int):
    """Does the braid read off the loop JSON equal Delta^delta_power?"""
    back = _read(tr, obj)
    with tr.span("loops.extract_braid"):
        word = cg.extract_braid(back)
    tr.add("loops.extract_braid.letters_out", len(word))
    with tr.span("braids.parse"):
        target = cg.parse_word(f"delta^{delta_power}", back.k)
    tr.add("braids.parse.letters_out", len(target))
    with tr.span("braids.equal_in_braid"):
        same = cg.equal_in_braid(word, target)
    return same, word.letters


def check_loop_braid(answer, expected):
    same, letters = answer
    k, delta_power = expected
    if not same:
        return f"extracted braid is not Delta^{delta_power}"
    if not oracle.braids_equal(list(letters), oracle.power(oracle.staircase(k), delta_power), k):
        return f"extracted word {letters} does not act as Delta^{delta_power}"
    return None


def run_loop_winding(tr, obj: dict):
    back = _read(tr, obj)
    with tr.span("loops.det_winding"):
        winding = cg.det_winding(back)
    with tr.span("loops.span_reports"):
        reports = cg.span_reports(back)
    return winding, sorted({r.dimension for r in reports}), len(reports)


def _direction(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _radii(rng: np.random.Generator, count: int) -> np.ndarray:
    """Distinct positive radii at least 0.2 apart."""
    return np.cumsum(0.2 + rng.uniform(0.0, 0.8, size=count))


def _rotation(frames: int, half_turns: int) -> np.ndarray:
    z = np.exp(1j * np.pi * half_turns * np.arange(frames) / (frames - 1))
    if half_turns % 2 == 0:
        z[-1] = z[0]
    else:
        z[-1] = -z[0]
    return z


def by_program(frames: np.ndarray, program) -> np.ndarray:
    """Frames of the loop that runs a closed loop forwards (+1) or backwards
    (-1) per program step, joined as confgroups.concatenate joins loops."""
    pieces = [frames if step > 0 else frames[::-1] for step in program]
    return np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])


def loop_json(frames: np.ndarray) -> dict:
    """The loop JSON the CLI reads: per frame, per point, [re, im] per coordinate."""
    return {"k": frames.shape[1], "n": frames.shape[2], "closed": True,
            "frames": np.stack([frames.real, frames.imag], axis=-1).tolist()}


def _loop_op(rng: np.random.Generator, kind: str, k: int, n: int, frames: int, program) -> Op:
    if kind == "halfturn":
        # points symmetric about 0 on a line, turned program[0] half turns:
        # closed only as a set, braid Delta^turns
        r = _radii(rng, k // 2)
        c = np.concatenate([-r[::-1], [0.0] if k % 2 else [], r])
        z = _rotation(frames, program[0])
        arr = (z[:, None] * c[None, :])[:, :, None] * _direction(rng, n)[None, None, :]
        return Op("loop_braid/halfturn", (loop_json(arr), program[0]), (k, program[0]),
                  run_loop_braid, check_loop_braid)
    steps = len(program)
    per = (frames + steps - 1) // steps + 1
    z = _rotation(per, 2)
    if kind == "gamma":
        # points on a rotating line through 0, one full turn per step: Delta^2 each
        c = _radii(rng, k)
        arr = (z[:, None] * c[None, :])[:, :, None] * _direction(rng, n)[None, None, :]
        power = 2 * sum(program)
        return Op("loop_braid/gamma", (loop_json(by_program(arr, program)), power), (k, power),
                  run_loop_braid, check_loop_braid)
    # kind "h": k = n + 1 points in general position, the last turning about
    # the first once per step; the frame determinant winds once per step
    while True:
        pts = rng.normal(size=(n + 1, n)) + 1j * rng.normal(size=(n + 1, n))
        diffs = pts[1:] - pts[0]
        if abs(np.linalg.det(diffs)) > 0.3 * np.prod(np.linalg.norm(diffs, axis=1)):
            break
    arr = np.repeat(pts[None, :, :], per, axis=0)
    arr[:, n, :] = pts[0] + z[:, None] * diffs[n - 1][None, :]
    arr = by_program(arr, program)
    return Op("loop_winding/h", (loop_json(arr),), (sum(program), [n], len(arr)), run_loop_winding, _same)


# frame counts from 1k to 6k, most queries small so a pass stays short
LOOP_FRAMES = (6000, 3000, 2000) + (1000,) * 27
LOOP_PROGRAMS = ((1,), (-1,), (1, 1), (1, -1), (-1, -1), (1, 1, -1))


def _loops_shapes():
    kinds = ("gamma", "h", "gamma", "h", "halfturn") * 6
    shapes = []
    for idx, (kind, frames) in enumerate(zip(kinds, LOOP_FRAMES)):
        if kind == "halfturn":
            k = 2 + idx % 5
            shapes.append((kind, k, 1 + idx % 6, frames, (1 + 2 * (idx % 2),)))
        elif kind == "gamma":
            shapes.append((kind, 2 + idx % 5, 1 + idx % 6, frames, LOOP_PROGRAMS[idx % 6]))
        else:
            n = 1 + idx % 5
            shapes.append((kind, n + 1, n, frames, LOOP_PROGRAMS[(idx + 3) % 6]))
    return shapes


# ---------------------------------------------------------------------------
# presentation queries


def run_enumerate(tr, spec: str, subgroup: str):
    """Index of a subgroup: spec is 'name:size' or presentation text."""
    if ";" in spec:
        with tr.span("fpgroups.parse_presentation"):
            pres = cg.parse_presentation(spec)
    else:
        name, _, size = spec.partition(":")
        with tr.span("fpgroups.builtin_presentation"):
            pres = cg.builtin_presentation(name, int(size))
    with tr.span("fpgroups.parse_abstract_word"):
        sub = tuple(cg.parse_abstract_word(w, pres.generators) for w in subgroup.split(",") if w.strip())
    with tr.span("fpgroups.todd_coxeter"):
        table = cg.todd_coxeter(pres, sub)
    tr.add("fpgroups.todd_coxeter.cosets_out", table.num_cosets)
    tr.add("fpgroups.todd_coxeter.capped", table.status == "capped")
    return table.status, table.num_cosets


def run_abelianize(tr, spec: str):
    name, _, size = spec.partition(":")
    with tr.span("fpgroups.builtin_presentation"):
        pres = cg.builtin_presentation(name, int(size))
    with tr.span("fpgroups.relator_matrix"):
        matrix = cg.relator_matrix(pres)
    with tr.span("fpgroups.smith_normal_form"):
        factors = cg.smith_normal_form(matrix)
    tr.add("fpgroups.smith_normal_form.matrix_entries", matrix.rows * matrix.cols)
    return len(pres.generators) - len(factors), tuple(d for d in factors if d != 1)


def run_pure_inclusion(tr, k: int):
    """Is a[i,j] -> its braid word a homomorphism PB_k -> B_k?"""
    with tr.span("fpgroups.builtin_presentation"):
        pres = cg.builtin_presentation("pure_braid", k)
    images = {}
    for name in pres.generators:
        i, j = name[1:].split("_")
        with tr.span("braids.parse"):
            images[name] = cg.parse_word(f"a[{i},{j}]", k)
        tr.add("braids.parse.letters_out", len(images[name]))

    def equals(u, v):
        with tr.span("braids.equal_in_braid"):
            return cg.equal_in_braid(u, v)

    with tr.span("fpgroups.verify_homomorphism"):
        report = cg.verify_homomorphism(
            pres, images, multiply=cg.multiply, inverse=cg.inverse,
            identity=cg.BraidWord(k), equals=equals,
        )
    tr.add("fpgroups.verify_homomorphism.relators", len(report.results))
    return report.passes, len(report.results)


def run_verify_paper(tr):
    with tr.span("verify.paper_verification_suite"):
        report = cg.paper_verification_suite()
    tr.add("verify.paper_verification_suite.claims", len(report.results))
    return report.passes, len(report.results)


def coxeter_text(rng: random.Random, k: int) -> str:
    """Coxeter presentation of the symmetric group on k points, generator
    names and relator order drawn from rng."""
    prefix = rng.choice("bcfghjmpqrtvwxyz")
    g = [f"{prefix}{i}" for i in range(1, k)]
    rels = [f"{x} {x}" for x in g]
    rels += [" ".join([g[i], g[i + 1]] * 3) for i in range(k - 2)]
    rels += [" ".join([g[i], g[j]] * 2) for i in range(k - 1) for j in range(i + 2, k - 1)]
    rng.shuffle(rels)
    order = list(g)
    rng.shuffle(order)
    return f"gens: {', '.join(order)} ; rels: {', '.join(rels)}"


FAMILIES = ("artin", "braid_mod_delta_sq", "pure_braid", "pure_braid_mod_D", "unordered_top")


def _presentations_shapes():
    shapes = [("top", p, m) for p in range(3, 8) for m in (1, 2)]
    shapes += [("coxeter", k, 0) for k in range(3, 8)]
    shapes += [("abelian", f"{fam}:{k}", 0) for fam in FAMILIES for k in range(2, 13)]
    shapes += [("inclusion", k, 0) for k in range(3, 7)]
    shapes += [("verify", 0, 0)]
    return shapes


def _presentation_op(rng: random.Random, kind: str, arg, m: int) -> Op:
    if kind == "top":
        # <T^m> with T = s_j^2 for any j, since all the squares agree
        j = rng.randrange(1, arg)
        return Op("enumerate/unordered_top", (f"unordered_top:{arg}", " ".join([f"s{j}"] * 2 * m)),
                  ("complete", m * math.factorial(arg)), run_enumerate, _same)
    if kind == "coxeter":
        return Op("enumerate/coxeter", (coxeter_text(rng, arg), ""),
                  ("complete", math.factorial(arg)), run_enumerate, _same)
    if kind == "abelian":
        fam, _, size = arg.partition(":")
        return Op(f"abelianize/{fam}", (arg,), oracle.abelianization(fam, int(size)), run_abelianize, _same)
    if kind == "inclusion":
        return Op("verify_homomorphism/pure_braid", (arg,),
                  (True, oracle.pure_braid_relator_count(arg)), run_pure_inclusion, _same)
    return Op("verify/paper", (), (True, 45), run_verify_paper, _same)


# ---------------------------------------------------------------------------
# workload table


def _seeded(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


WORKLOADS = {
    "words_small_k": (_words_small_k_shapes, lambda rng, shape: _word_op(rng, *shape)),
    "loops": (_loops_shapes, lambda rng, shape: _loop_op(np.random.default_rng(rng.getrandbits(64)), *shape)),
    "presentations": (_presentations_shapes, lambda rng, shape: _presentation_op(rng, *shape)),
}


def ops(workload: str, seed: int) -> Iterator[Op]:
    shapes_of, build = WORKLOADS[workload]
    for index, shape in enumerate(shapes_of()):
        yield build(_seeded(workload, seed, index), shape)
