"""Braid words and Garside normal form, checked against independent oracles."""

import itertools
import random

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


def test_multiply_is_concatenation():
    u = word(3, (1, 1))
    v = word(3, (1, -1))
    assert multiply(u, v).letters == ((1, 1), (1, -1))
    assert multiply(BraidWord(3), word(3, (2, 1))).letters == ((2, 1),)
    with pytest.raises(BraidError):
        multiply(word(3, (1, 1)), word(4, (1, 1)))


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


def test_normal_form_matches_identity_combing_reference(monkeypatch):
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
    monkeypatch.setattr(braids._Tables, "normalise", helpers.reference_normalise)
    assert [garside_normal_form(w) for w in words] == forms


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
    # larger strand count would allocate permutation tables of k^2 entries
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
