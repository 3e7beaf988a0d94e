"""Braid words and Garside normal form, checked against independent oracles."""

import itertools
import random
import tracemalloc
import types

import numpy as np
import pytest

import helpers
from confgroups import braids
from confgroups.braids import (
    BraidError,
    BraidWord,
    GarsideForm,
    Permutation,
    PureGeneratorId,
    d_word,
    delta_word,
    equal_in_braid,
    exponent_sum,
    format_form,
    format_word,
    garside_normal_form,
    inverse,
    multiply,
    parse_pure_word,
    parse_word,
    permutation_image,
    power,
    pure_generator,
    pure_word_to_braid,
    spell_form,
)


def word(k, *letters):
    return BraidWord(k, tuple(letters))


# ---------------------------------------------------------------------------
# construction and basic ops


def test_letter_validation():
    with pytest.raises(BraidError):
        BraidWord(3, ((3, 1),))
    with pytest.raises(BraidError):
        BraidWord(3, ((1, 2),))
    with pytest.raises(BraidError):
        BraidWord(0)
    # a letter that is not a pair is refused as a letter, not by unpacking
    for letter in ((1, 1, 0), (1,), 5, None):
        with pytest.raises(BraidError, match=r"is not an \(index, sign\) pair"):
            BraidWord(3, ((1, 1), letter))


def _outcome(call):
    """repr of what call returns, or the type and text of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # whatever the reference raises, the package must too
        return type(exc), str(exc)


def _check_letters(letters):
    BraidWord(3, letters)


def test_braid_word_rejects_what_the_per_letter_check_rejects():
    # each distinct letter is checked once, so repeats and equal letters of
    # other types must not change what is refused or the first message
    refused = [
        ((0, 1),),
        ((3, 1),),
        ((1, 0),),
        ((1, 2),),
        ((np.int64(3), 1),),
        ((1, False),),
        ((False, 1),),
        ((1, 1), (1, 1, 1)),
        ((1, 1), (2, -1), (1, 1), (1, 2), (0, 1)),
        ((1, 1), (3.0, 1), (3, 1)),
        ([1, 1], [3, 1]),  # list letters cannot be hashed: every letter is checked
        ((1, [1]),),
    ]
    for letters in refused:
        got = _outcome(lambda: _check_letters(letters))
        assert got == _outcome(lambda: helpers.reference_check_letters(3, letters))
        assert got[0] is BraidError
    assert _outcome(lambda: _check_letters(((3.0, 1), (3, 1)))) == (
        BraidError,
        "letter (3.0, 1) is not a pair of ints",
    )
    # a letter equal to an earlier one but of another type is still refused
    assert _outcome(lambda: _check_letters(((1, 1), (2, -1), (1, True), (1, False)))) == (
        BraidError,
        "letter (1, True) is not a pair of ints",
    )
    for letters in (((1, 1), (1.0, 1)), ((2, -1), (2, -1.0)), ((1, -1), (np.int64(1), -1))):
        assert _outcome(lambda: _check_letters(letters)) == (
            BraidError,
            f"letter {letters[1]!r} is not a pair of ints",
        )
    accepted = [
        ((1, -1),),
        ([1, 1], [2, -1], [1, 1]),
        ((1, 1), [1, 1], (2, -1), (1, 1)),
    ]
    for letters in accepted:
        helpers.reference_check_letters(3, letters)
        assert BraidWord(3, letters).letters is letters
    # seeded sequences over good, bad and odd letters
    rng = random.Random(20)
    pool = [(1, 1), (2, -1), (1.0, 1), (True, -1), (np.int64(2), 1), [1, 1], (1.5, -1),
            (0, 1), (3, -1), (1, 0), (2, 2), (1, False), (3.0, 1), (1, 1, 1), (2, [1])]
    for _ in range(3000):
        letters = tuple(rng.choice(pool) for _ in range(rng.randint(0, 10)))
        assert _outcome(lambda: _check_letters(letters)) == _outcome(
            lambda: helpers.reference_check_letters(3, letters)
        )


def test_letters_of_other_types_are_refused():
    # a string, None or complex index once escaped as a bare TypeError; an
    # index or sign of 1.0 made garside_normal_form raise one, and an index of
    # True printed as sTrue
    for letter in (("a", 1), (None, 1), (1j, 1), (1 + 0j, 1), (1.0, 1), (1.5, 1), (1, 1.0),
                   (True, 1), (1, True), (np.int64(1), 1), (1, np.int64(-1)), np.array([2, -1])):
        for letters in ((letter,), ((1, 1), letter)):
            with pytest.raises(BraidError, match="is not a pair of ints"):
                BraidWord(3, letters)


def test_multiply_is_concatenation():
    u = word(3, (1, 1))
    v = word(3, (1, -1))
    assert multiply(u, v).letters == ((1, 1), (1, -1))
    assert multiply(BraidWord(3), word(3, (2, 1))).letters == ((2, 1),)
    with pytest.raises(BraidError):
        multiply(word(3, (1, 1)), word(4, (1, 1)))


def test_word_operations_check_only_operands_that_are_not_exactly_braid_words():
    rng = random.Random(29)
    for _ in range(50):
        k = rng.randint(2, 6)
        u, v = (word(k, *((rng.randint(1, k - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))))
                for _ in "uv")
        e = rng.randint(-3, 3)
        expected = (
            (multiply(u, v), BraidWord(k, u.letters + v.letters)),
            (inverse(u), BraidWord(k, tuple((i, -s) for i, s in reversed(u.letters)))),
            (power(u, e), BraidWord(k, (u.letters if e >= 0 else inverse(u).letters) * abs(e))),
        )
        for got, built in expected:
            assert type(got) is BraidWord and got == built and hash(got) == hash(built)

    class Unchecked(BraidWord):
        def __post_init__(self):
            pass

    good = word(3, (1, 1))
    duck = types.SimpleNamespace(strands=3, letters=((3, 1),))
    for bad in (Unchecked(3, ((3, 1),)), duck):
        for call in (lambda: multiply(bad, good), lambda: multiply(good, bad),
                     lambda: inverse(bad), lambda: power(bad, 2)):
            with pytest.raises(BraidError, match="out of range for 3 strands"):
                call()
    # a well-formed operand that is not exactly a BraidWord still gives one
    assert type(inverse(Unchecked(3, ((2, 1),)))) is BraidWord
    assert multiply(types.SimpleNamespace(strands=3, letters=((2, 1),)), good) == word(3, (2, 1), (1, 1))
    with pytest.raises(BraidError, match="strand-count mismatch: 3 vs 4"):
        multiply(good, word(4))
    with pytest.raises(BraidError, match="over the limit"):
        power(good, braids._MAX_LETTERS + 1)


def test_inverse_reverses_and_flips():
    u = parse_word("s1 s2", 3)
    assert format_word(inverse(u)) == "s2^-1 s1^-1"
    assert inverse(BraidWord(3)) == BraidWord(3)
    assert garside_normal_form(multiply(u, inverse(u))).is_identity()


def test_permutation_type():
    p = Permutation(3, (2, 1, 3))
    assert p(1) == 2 and p(2) == 1 and p(3) == 3
    assert p.compose(p).is_identity()
    assert p.inversions() == 1
    with pytest.raises(BraidError):
        Permutation(3, (1, 1, 2))


def test_permutation_images_are_ints():
    # numpy ints and bools become Python ints; floats, strings and None are refused
    for images in (np.array([2, 3, 1]), (np.int64(2), np.int64(3), True)):
        p = Permutation(3, images)
        assert all(type(v) is int for v in p.images)
        assert p.compose(p.inverse()).is_identity()
    assert str(Permutation(2, (True, 2))) == "1 2"
    for images in ((2.0, 1.0), ("2", "1"), None, (1, None)):
        with pytest.raises(BraidError, match="not a permutation of 1..2"):
            Permutation(2, images)


# ---------------------------------------------------------------------------
# normal form: spec'd examples and brute-force anchors


def test_identity_form():
    form = garside_normal_form(BraidWord(3))
    assert form == GarsideForm(3, 0, ())
    assert form.is_identity()


def test_delta_3_is_the_half_twist_brute_force():
    # among all positive length-3 words in B_3, exactly those equal to the
    # staircase have the order-reversing permutation image and are one class
    staircase = tuple(i for i, _ in delta_word(3).letters)
    assert staircase == (1, 2, 1)
    cls = helpers.closure_class(staircase, 3)
    for letters in itertools.product((1, 2), repeat=3):
        w = BraidWord(3, tuple((i, 1) for i in letters))
        in_class = letters in cls
        assert in_class == equal_in_braid(w, delta_word(3))
    form = garside_normal_form(delta_word(3))
    assert form.delta_power == 1 and not form.factors


def test_delta_word_properties():
    for k in range(2, 7):
        d = delta_word(k)
        assert exponent_sum(d) == k * (k - 1) // 2
        assert permutation_image(d).images == tuple(range(k, 0, -1))
    assert format_word(delta_word(2)) == "s1"
    with pytest.raises(BraidError):
        delta_word(1)


def test_braid_and_commutation_relations():
    assert equal_in_braid(parse_word("s1 s2 s1", 3), parse_word("s2 s1 s2", 3))
    assert equal_in_braid(parse_word("s1 s3", 4), parse_word("s3 s1", 4))
    assert not equal_in_braid(parse_word("s1", 3), parse_word("s2", 3))
    assert not equal_in_braid(parse_word("s1 s1", 3), parse_word("s2 s2", 3))


def test_completeness_on_short_positive_words_B3():
    # every pair of positive words of length <= 5 in B_3: equal_in_braid agrees
    # with the rewriting-closure oracle
    for length in range(0, 6):
        words = list(itertools.product((1, 2), repeat=length))
        classes = {w: helpers.closure_class(w, 3) for w in words}
        for u in words:
            for v in words:
                expected = v in classes[u]
                got = equal_in_braid(
                    BraidWord(3, tuple((i, 1) for i in u)),
                    BraidWord(3, tuple((i, 1) for i in v)),
                )
                assert got == expected, (u, v)


def test_positive_words_equal_oracle_across_lengths():
    # oracle sanity: words of different lengths are never equal
    assert not helpers.positive_words_equal((1,), (1, 2, 1), 3)


# ---------------------------------------------------------------------------
# pure generators, the full twist, named identities


def test_pure_generator_examples():
    assert format_word(pure_generator(PureGeneratorId(1, 2, 3))) == "s1 s1"
    assert format_word(pure_generator(PureGeneratorId(1, 3, 3))) == "s2 s1 s1 s2^-1"
    with pytest.raises(BraidError):
        PureGeneratorId(2, 2, 3)


def test_pure_generators_are_pure():
    for k in range(2, 6):
        for j in range(2, k + 1):
            for i in range(1, j):
                img = permutation_image(pure_generator(PureGeneratorId(i, j, k)))
                assert img.is_identity()


def test_d_word_examples():
    assert format_word(d_word(2)) == "s1 s1"
    for k in range(2, 7):
        assert exponent_sum(d_word(k)) == k * (k - 1)
        assert permutation_image(d_word(k)).is_identity()


def test_full_twist_is_delta_squared():
    for k in range(2, 7):
        assert equal_in_braid(d_word(k), power(delta_word(k), 2))
        assert garside_normal_form(d_word(k)) == garside_normal_form(
            power(delta_word(k), 2)
        )


def test_delta_squared_is_central():
    rng = random.Random(5)
    for k in range(2, 6):
        dd = power(delta_word(k), 2)
        for _ in range(40):
            w = BraidWord(k, tuple(helpers.random_letters(rng, k, rng.randrange(0, 16))))
            assert equal_in_braid(multiply(dd, w), multiply(w, dd))


# ---------------------------------------------------------------------------
# property suites (reduced sizes here; full sizes in the acceptance run)


def test_normal_form_invariant_under_relator_insertion():
    rng = random.Random(11)
    for _ in range(800):
        k = rng.randint(2, 6)
        letters = helpers.random_letters(rng, k, rng.randrange(0, 25))
        u = BraidWord(k, tuple(letters))
        v = BraidWord(k, tuple(helpers.insert_relator(letters, k, rng)))
        assert garside_normal_form(u) == garside_normal_form(v)
        assert permutation_image(u) == permutation_image(v)
        assert exponent_sum(u) == exponent_sum(v)


def test_round_trip_form_to_word_to_form():
    rng = random.Random(12)
    for _ in range(300):
        k = rng.randint(1, 6)
        letters = helpers.random_letters(rng, k, rng.randrange(0, 30)) if k > 1 else []
        form = garside_normal_form(BraidWord(k, tuple(letters)))
        again = garside_normal_form(spell_form(form))
        assert again == form


def test_equality_vs_independent_permutation_and_exponent():
    # braid equality is finer than, but consistent with, these invariants
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randint(2, 5)
        u = BraidWord(k, tuple(helpers.random_letters(rng, k, rng.randrange(0, 12))))
        v = BraidWord(k, tuple(helpers.random_letters(rng, k, rng.randrange(0, 12))))
        if equal_in_braid(u, v):
            assert permutation_image(u) == permutation_image(v)
            assert exponent_sum(u) == exponent_sum(v)
        swaps_u = [(i - 1, i) for i, _ in u.letters]
        expected = helpers.perm_of_letters(k, swaps_u)
        assert tuple(x - 1 for x in permutation_image(u).images) == expected


def test_garside_form_shape_is_enforced():
    w0 = Permutation(3, (3, 2, 1))
    ident = Permutation.identity(3)
    s1 = Permutation(3, (2, 1, 3))
    s2 = Permutation(3, (1, 3, 2))
    with pytest.raises(BraidError):
        GarsideForm(3, 0, (ident,))
    with pytest.raises(BraidError):
        GarsideForm(3, 0, (w0,))
    with pytest.raises(BraidError):
        GarsideForm(3, 0, (s1, s2))  # s2 does not finish s1: not left-weighted
    # the greedy form of s1 s1 s2 really is two factors, s1 then s1s2
    nf = garside_normal_form(parse_word("s1 s1 s2", 3))
    assert nf == GarsideForm(3, 0, (s1, Permutation(3, (3, 1, 2))))
    # images given as lists are held as the tuples the kernel reads
    assert Permutation(3, [2, 1, 3]) == s1
    with pytest.raises(BraidError, match="identity or the half twist"):
        GarsideForm(3, 0, (Permutation(3, [1, 2, 3]),))
    assert GarsideForm(3, 0, (Permutation(3, [2, 1, 3]),) * 2) == garside_normal_form(
        parse_word("s1 s1", 3)
    )


def _random_token_text(rng, k, max_letters):
    """Random word text over s_i^e, delta^e and a[i,j]^e tokens expanding to
    at most max_letters letters."""
    tokens, size = [], 0
    while True:
        e = rng.choice((-3, -2, -1, 1, 2, 3))
        kind = rng.randrange(3)
        if kind == 0:
            token, letters = f"s{rng.randint(1, k - 1)}", 1
        elif kind == 1:
            token, letters = "delta", k * (k - 1) // 2
        else:
            j = rng.randint(2, k)
            i = rng.randint(1, j - 1)
            token, letters = f"a[{i},{j}]", 2 * (j - i)
        if size + letters * abs(e) > max_letters:
            return " ".join(tokens)
        tokens.append(token if e == 1 else f"{token}^{e}")
        size += letters * abs(e)


def test_normal_form_matches_identity_combing_reference():
    rng = random.Random(14)
    words = []
    for n in range(2000):
        k = rng.randint(2, 8)
        length = rng.randint(0, 300)
        if n % 3 == 0:
            letters = helpers.random_letters(rng, k, length)
        elif n % 3 == 1:  # u, then the inverse of a prefix of u: heavy cancellation
            u = helpers.random_letters(rng, k, length // 2)
            prefix = u[: rng.randint(0, len(u))]
            letters = u + [(i, -s) for i, s in reversed(prefix)]
        else:
            letters = parse_word(_random_token_text(rng, k, length), k).letters
        words.append(BraidWord(k, tuple(letters)))
    forms = [garside_normal_form(w) for w in words]
    # a second, independent check: each spelled form acts on Dynnikov
    # coordinates as its word does
    for w, form in zip(words, forms):
        spelled = spell_form(form).letters
        assert braids._dynnikov(w.strands, spelled) == braids._dynnikov(w.strands, w.letters)
    assert [helpers.reference_garside_normal_form(w) for w in words] == forms


def test_normal_form_matches_the_earlier_pipeline_on_seeded_words():
    # at k = 2 every letter is a half twist: all words of up to 8 letters
    words = [
        BraidWord(2, tuple((1, s) for s in signs))
        for length in range(9)
        for signs in itertools.product((1, -1), repeat=length)
    ]
    rng = random.Random(17)
    for _ in range(20000):
        k, length = rng.randint(1, 9), rng.randint(0, 150)
        words.append(BraidWord(k, tuple(helpers.random_letters(rng, k, length) if k > 1 else ())))
    words += [BraidWord(k, tuple(helpers.random_letters(rng, k, 5000))) for k in range(3, 9)]
    # grouped by strand count, so the pair memo serves both sides
    for w in sorted(words, key=lambda w: w.strands):
        assert garside_normal_form(w) == helpers.reference_garside_normal_form(w), w


def test_normal_form_counts_half_twists_instead_of_walking_them():
    # walking each half twist the combing fills to the front made 955,527
    # pair renormalisations on this word
    w = BraidWord(6, tuple(helpers.random_letters(random.Random(19), 6, 5000)))
    braids._renorm.cache_clear()
    garside_normal_form(w)
    info = braids._renorm.cache_info()
    assert info.hits + info.misses < 50_000


def _one_based(*perms):
    return tuple(tuple(v + 1 for v in p) for p in perms)


def test_renorm_matches_letter_at_a_time_reference():
    # the kernel works on 1-based images, the reference on 0-based tuples
    for k in range(1, 6):
        perms = list(itertools.permutations(range(k)))
        for p in perms:
            for q in perms:
                expected = _one_based(*helpers.reference_renorm(p, q))
                assert braids._renorm(*_one_based(p, q)) == expected
    rng = random.Random(15)
    for _ in range(5000):
        k = rng.randint(6, 12)
        p, q = tuple(rng.sample(range(k), k)), tuple(rng.sample(range(k), k))
        expected = _one_based(*helpers.reference_renorm(p, q))
        assert braids._renorm(*_one_based(p, q)) == expected


def test_reduced_word_matches_reference():
    for k in range(1, 7):
        for p in itertools.permutations(range(k)):
            assert braids._reduced_word(p) == helpers.reference_word_of(p)


def test_cold_normal_form_keeps_little_memory_alive():
    # the pair memo keeps the pairs a form needs, not one entry per
    # intermediate permutation of every renormalisation
    w = parse_word("s1 s2^-1", 150)
    tracemalloc.start()
    try:
        form = garside_normal_form(w)
        alive, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert form == garside_normal_form(w)
    assert alive < 1 << 20


# ---------------------------------------------------------------------------
# text syntax


def test_parse_and_format_word():
    w = parse_word("s1 s2^-1", 3)
    assert w.letters == ((1, 1), (2, -1))
    assert format_word(w) == "s1 s2^-1"
    assert parse_word("s1^3", 3).letters == ((1, 1),) * 3
    assert parse_word("s1^-2", 3).letters == ((1, -1),) * 2
    assert format_word(BraidWord(4)) == "(empty)"


def test_parse_compound_tokens():
    assert equal_in_braid(parse_word("delta^2", 3), power(delta_word(3), 2))
    assert equal_in_braid(parse_word("a[1,3]", 3), pure_generator(PureGeneratorId(1, 3, 3)))
    assert equal_in_braid(
        parse_word("a[1,2]^-1", 3), inverse(pure_generator(PureGeneratorId(1, 2, 3)))
    )
    with pytest.raises(BraidError):
        parse_word("delta", 3, allow_compound=False)
    with pytest.raises(BraidError):
        parse_word("a[1,2]", 3, allow_compound=False)
    with pytest.raises(BraidError):
        parse_word("x7", 3)
    with pytest.raises(BraidError):
        parse_word("s1^x", 3)


def test_parse_pure_word():
    letters = parse_pure_word("a[1,2] a[1,3]^-1", 3)
    assert letters == (
        (PureGeneratorId(1, 2, 3), 1),
        (PureGeneratorId(1, 3, 3), -1),
    )
    for bad in ("s1", "a[1,x]"):
        with pytest.raises(BraidError):
            parse_pure_word(bad, 3)


def test_parsers_match_the_per_occurrence_references():
    rng = random.Random(20)
    cases = []
    for _ in range(400):  # a few distinct tokens, each repeated many times
        k = rng.randint(2, 7)
        pool = _random_token_text(rng, k, 40).split()[:5] or ["s1"]
        cases.append((k, " ".join(rng.choice(pool) for _ in range(rng.randint(0, 150)))))
    cases += [
        (3, text)
        for text in (
            "x7",  # bad tokens, first and after repeated good ones
            "s1 s2 s1 s2^-1 s1 x7 s1 x7",
            "s9 s9",
            "s1 s1 s9 s1 s9",
            "s1^x s1 s1^x",
            "s2 a[1,x] s2 a[1,x]",
            "a[2,1] s1 a[2,1]",
            "s1 delta s1 delta^-1",  # refused only without compounds
            "s1^600000 s1^600000",  # the letter budget meets a repeated token
            "delta^200000 s1 delta^200000",
            "a[1,3]^-100000 s1 s1 a[1,3]^-100000 s1 a[1,3]^-100000",
            "s1^0 s1^0 s2^-0 s2",
        )
    ]
    for k, text in cases:
        for compound in (True, False):
            assert _outcome(lambda: parse_word(text, k, allow_compound=compound)) == _outcome(
                lambda: helpers.reference_parse_word(text, k, allow_compound=compound)
            )
    pure = []
    for _ in range(300):
        k = rng.randint(2, 7)
        tokens = []
        for _ in range(4):
            j = rng.randint(2, k)
            power = rng.choice(("", "^2", "^-1", "^-3", "^0"))
            tokens.append(f"a[{rng.randint(1, j - 1)},{j}]{power}")
        pure.append((k, " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 150)))))
    pure += [
        (3, text)
        for text in (
            "a[1,2] s1 a[1,2] s1",
            "a[1,2] a[1,2]^y a[1,2]^y",
            "a[1,3] a[1,4] a[1,3] a[1,4]",
            "a[1,2]^600000 a[1,2]^600000",
        )
    ]
    pure.append((30, "a[1,30]^20000"))  # within the budget as pure letters, over it as a braid
    for k, text in pure:
        got = _outcome(lambda: parse_pure_word(text, k))
        assert got == _outcome(lambda: helpers.reference_parse_pure_word(text, k))
        if isinstance(got, str):
            letters = parse_pure_word(text, k)
            assert _outcome(lambda: pure_word_to_braid(k, letters)) == _outcome(
                lambda: helpers.reference_pure_word_to_braid(k, letters)
            )
    # a generator of the wrong strand count, first and after repeated good ones
    a12, a14 = PureGeneratorId(1, 2, 3), PureGeneratorId(1, 4, 4)
    cases = [((a14, 1),), ((a12, 1), (a12, -1), (a12, 1), (a14, -1), (a14, -1))]
    # bad signs and non-generators, first and after repeated good letters, are
    # refused: sign 0 once read as -1, signs 2 and 1.5 as +1, and ('x', 1)
    # raised an AttributeError; so are letters that are not pairs
    for bad in ((a12, 0), (a12, 2), (a12, 1.5), ("x", 1), ([1, 2], 1), (a12, [1]),
                a12, (a12,), (a12, 1, 0)):
        cases += [(bad, bad), ((a12, 1), (a12, -1), (a12, 1), bad)]
    for letters in cases:
        got = _outcome(lambda: pure_word_to_braid(3, letters))
        assert got[0] is BraidError
        assert got == _outcome(lambda: helpers.reference_pure_word_to_braid(3, letters))
    # numbers equal to a sign read as that sign
    letters = ((a12, 1.0), (a12, True), (a12, -1))
    assert pure_word_to_braid(3, letters) == helpers.reference_pure_word_to_braid(3, letters)


def test_token_error_texts():
    cases = [
        (lambda: parse_word("s1^x", 3), "bad exponent in token 's1^x'"),
        (lambda: parse_word("s9", 3), "generator index 9 out of range for 3 strands"),
        (lambda: parse_word("x7", 3), "unrecognised word token 'x7'"),
        (lambda: parse_word("delta", 3, allow_compound=False), "delta is not a generator of this group"),
        (
            lambda: parse_word("a[1,x]", 3, allow_compound=False),
            "pure-braid generator 'a[1,x]' is not in this group's alphabet",
        ),
        (lambda: parse_word("a[1,2,3]^2", 3), "bad pure-generator token 'a[1,2,3]^2'"),
        (lambda: parse_word("a[1,x]", 3), "bad pure-generator token 'a[1,x]'"),
        (lambda: parse_word("a[2,1]", 3), "need 1 <= i < j <= strands, got (2, 1) in 3"),
        (lambda: parse_pure_word("a[1,2]^y", 3), "bad exponent in token 'a[1,2]^y'"),
        (lambda: parse_pure_word("s1", 3), "token 's1' is not a pure-braid generator"),
        (lambda: parse_pure_word("a[1]", 3), "bad pure-generator token 'a[1]'"),
        (lambda: parse_pure_word("a[x,2]", 3), "bad pure-generator token 'a[x,2]'"),
        (lambda: parse_pure_word("a[1,4]", 3), "need 1 <= i < j <= strands, got (1, 4) in 3"),
    ]
    for parse, text in cases:
        with pytest.raises(BraidError) as info:
            parse()
        assert str(info.value) == text


def test_word_expansion_is_bounded():
    # each of these would allocate 10**12 letters or more without the check
    for text in ("s1^1000000000000", "delta^-1000000000000", "s2 a[1,3]^1000000000000"):
        with pytest.raises(BraidError, match="over the limit"):
            parse_word(text, 3)
    with pytest.raises(BraidError, match="over the limit"):
        parse_pure_word("a[1,2]^-1000000000000", 3)
    with pytest.raises(BraidError, match="over the limit"):
        power(delta_word(3), 10**12)
    with pytest.raises(BraidError, match="over the limit"):
        spell_form(GarsideForm(3, -(10**12)))
    # within the limit token by token, over it together
    with pytest.raises(BraidError, match="over the limit"):
        parse_word("s1^600000 s2^-600000", 3)
    with pytest.raises(BraidError, match="over the limit"):
        pure_word_to_braid(30, parse_pure_word("a[1,30]^20000", 30))


def test_strand_count_is_bounded():
    # Delta_k has k(k-1)/2 letters, so k <= 1414 fits the letter budget; a
    # larger strand count would spell a half twist over the budget
    assert parse_word("s1", 1414).strands == 1414
    for make in (lambda: parse_word("s1", 10**6), lambda: BraidWord(1415), lambda: BraidWord(10**9)):
        with pytest.raises(BraidError, match="half twist"):
            make()
    with pytest.raises(BraidError, match="over the limit"):
        parse_word("delta", 10**6)  # refused before the staircase is built
    with pytest.raises(BraidError, match="over the limit"):
        d_word(200)  # (k^3 - k)/3 = 2666600 letters
    assert len(d_word(144)) == (144**3 - 144) // 3


def test_form_serialization():
    assert format_form(garside_normal_form(BraidWord(3))) == "Δ^0"
    assert format_form(garside_normal_form(delta_word(4))) == "Δ^1"
    text = format_form(garside_normal_form(parse_word("s1 s2^-1", 3)))
    assert text == "Δ^-1 | 1 3 2 ; 2 3 1"
