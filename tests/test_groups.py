"""Classification of the configuration-space groups and their word problems."""

import math
import random

import pytest

import helpers
from confgroups.braids import (
    BraidError,
    BraidWord,
    Permutation,
    PureGeneratorId,
    delta_word,
    exponent_sum,
    multiply,
    parse_pure_word,
    parse_word,
    power,
)
from confgroups.fpgroups import Presentation, PresentationError, builtin_presentation, todd_coxeter
from confgroups.groups import (
    ORDERED,
    UNORDERED,
    AlphabetError,
    CentralExtElement,
    EmptyStratumError,
    GroupDescriptor,
    GroupError,
    case_statement,
    central_element,
    central_ext_relators,
    classify,
    descriptor_for,
    descriptor_relators,
    element_from_word,
    equal_in_group,
    geometric_to_artin_word,
    identity_word,
    sigma_prime,
    star_transposition,
    tau,
)


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify(5, 2, 3, ORDERED).tag == "trivial"
    assert classify(4, 1, 2, UNORDERED).tag == "braid_mod_delta_sq"
    assert classify(4, 3, 3, ORDERED).tag == "integers"
    assert classify(4, 1, 1, ORDERED).tag == "pure_braid"
    assert classify(4, 1, 1, UNORDERED).tag == "braid"
    assert classify(4, 1, 2, ORDERED).tag == "pure_braid_mod_D"
    assert classify(3, 2, 2, UNORDERED).tag == "central_ext_top"
    assert classify(5, 2, 3, UNORDERED).tag == "symmetric"
    assert classify(1, 0, 5, ORDERED).tag == "trivial"
    assert classify(1, 0, 5, UNORDERED).tag == "symmetric"


def test_line_case_beats_top_case_at_two_points():
    # k=2, i=1, n=1 satisfies both special loci; the line reading wins
    assert classify(2, 1, 1, ORDERED).tag == "pure_braid"
    assert classify(2, 1, 1, UNORDERED).tag == "braid"


def test_classify_rejects_empty_strata():
    with pytest.raises(EmptyStratumError):
        classify(2, 2, 3, ORDERED)  # two points never span a plane
    with pytest.raises(EmptyStratumError):
        classify(3, 0, 2, UNORDERED)  # several distinct points span >= a line
    with pytest.raises(EmptyStratumError):
        classify(1, 1, 2, ORDERED)  # one point spans dimension 0
    with pytest.raises(GroupError):
        classify(4, 3, 2, ORDERED)  # i > n is outside the domain
    with pytest.raises(GroupError):
        classify(0, 0, 1, ORDERED)
    with pytest.raises(GroupError):
        classify(3, 1, 1, "folded")


def test_every_nonempty_stratum_gets_exactly_one_tag():
    for flavor in (ORDERED, UNORDERED):
        for k in range(1, 9):
            for n in range(1, 7):
                for i in range(0, n + 1):
                    nonempty = i <= min(k - 1, n) and (i == 0) == (k == 1)
                    if not nonempty:
                        with pytest.raises(EmptyStratumError):
                            classify(k, i, n, flavor)
                        continue
                    d = classify(k, i, n, flavor)
                    matches = []
                    if i == 1 and n == 1:
                        matches.append("pure_braid" if flavor == ORDERED else "braid")
                    elif i == 1:
                        matches.append(
                            "pure_braid_mod_D" if flavor == ORDERED else "braid_mod_delta_sq"
                        )
                    if not (i == 1) and i == n == k - 1:
                        matches.append("integers" if flavor == ORDERED else "central_ext_top")
                    if not matches:
                        matches.append("trivial" if flavor == ORDERED else "symmetric")
                    assert [d.tag] == matches, (k, i, n, flavor)


def test_describe_strings():
    assert classify(4, 1, 2, UNORDERED).describe() == "B_4 / ⟨Δ²⟩"
    assert classify(4, 1, 2, ORDERED).describe() == "PB_4 / ⟨D⟩"
    assert classify(3, 2, 2, UNORDERED).describe() == "B_3 / ⟨σ1²=σ2²⟩"
    assert classify(4, 3, 3, UNORDERED).describe() == "B_4 / ⟨σ1²=⋯=σ3²⟩"
    assert classify(4, 3, 3, ORDERED).describe() == "ℤ"
    assert classify(5, 2, 3, UNORDERED).describe() == "Σ_5"
    assert classify(5, 2, 3, ORDERED).describe() == "trivial"
    assert classify(3, 1, 1, UNORDERED).describe() == "B_3"
    assert classify(3, 1, 1, ORDERED).describe() == "PB_3"


def test_case_statements_name_the_stratum():
    text = case_statement(classify(4, 1, 2, UNORDERED))
    assert text == (
        "pi_1(C_k^(i,n) with (k,i,n)=(4,1,2)) = B_k/<Delta_k^2> (collinear points, n > 1)"
    )
    assert "F_k" in case_statement(classify(4, 3, 3, ORDERED))
    assert "central Z-extension" in case_statement(classify(3, 2, 2, UNORDERED))


def test_descriptor_for_representatives():
    for tag in ("braid", "pure_braid", "braid_mod_delta_sq", "pure_braid_mod_D", "symmetric"):
        d = descriptor_for(tag, 4)
        assert d.tag == tag and d.parameter == 4
        assert classify(d.k, d.i, d.n, d.flavor) == d
    d = descriptor_for("central_ext_top", 3)
    assert (d.k, d.i, d.n) == (3, 2, 2) and d.parameter == 3
    assert classify(d.k, d.i, d.n, d.flavor) == d
    assert descriptor_for("trivial").tag == "trivial"
    assert descriptor_for("integers").tag == "integers"
    with pytest.raises(GroupError):
        descriptor_for("braid", 1)
    with pytest.raises(GroupError):
        descriptor_for("central_ext_top", 2)
    with pytest.raises(GroupError):
        descriptor_for("nonsense", 3)


# ---------------------------------------------------------------------------
# elements and equality


def _top(n_plus_1):
    return descriptor_for("central_ext_top", n_plus_1)


def test_central_ext_element_examples():
    d = _top(3)
    e = element_from_word(d, parse_word("s1^2", 3))
    assert e.payload == CentralExtElement(3, 1, Permutation.identity(3))
    e2 = element_from_word(d, parse_word("s1 s2", 3))
    assert e2.payload.twist == 0
    # star transpositions (0 1) then (0 2) compose to the 3-cycle 0->1->2->0
    assert e2.payload.perm.images == (2, 3, 1)
    assert e2.payload.perm.inversions() == 2


def test_mod_delta_sq_identity_example():
    d = descriptor_for("braid_mod_delta_sq", 3)
    e = element_from_word(d, power(delta_word(3), 2))
    assert e.payload == element_from_word(d, BraidWord(3)).payload
    assert equal_in_group(d, power(delta_word(3), 2), BraidWord(3))


def test_equal_in_group_examples():
    dp = descriptor_for("pure_braid_mod_D", 3)
    full_twist = parse_pure_word("a[1,2] a[1,3] a[2,3]", 3)
    assert equal_in_group(dp, full_twist, ())
    assert not equal_in_group(descriptor_for("pure_braid", 3), full_twist, ())

    dt = _top(3)
    assert equal_in_group(dt, parse_word("s1^2", 3), parse_word("s2^2", 3))
    assert not equal_in_group(descriptor_for("braid", 3), parse_word("s1^2", 3), parse_word("s2^2", 3))

    assert equal_in_group(descriptor_for("trivial"), None, None)
    assert equal_in_group(descriptor_for("integers"), 3, 3)
    assert not equal_in_group(descriptor_for("integers"), 3, -3)
    ds = descriptor_for("symmetric", 3)
    assert equal_in_group(ds, parse_word("s1^2", 3), BraidWord(3))
    assert not equal_in_group(ds, parse_word("s1", 3), parse_word("s2", 3))


def test_payload_variant_matches_tag():
    from confgroups.braids import GarsideForm

    cases = {
        "trivial": (descriptor_for("trivial"), None, type(None)),
        "integers": (descriptor_for("integers"), 5, int),
        "symmetric": (descriptor_for("symmetric", 3), parse_word("s1", 3), Permutation),
        "braid": (descriptor_for("braid", 3), parse_word("s1", 3), GarsideForm),
        "braid_mod_delta_sq": (
            descriptor_for("braid_mod_delta_sq", 3),
            parse_word("s1", 3),
            GarsideForm,
        ),
        "pure_braid": (
            descriptor_for("pure_braid", 3),
            parse_pure_word("a[1,2]", 3),
            GarsideForm,
        ),
        "pure_braid_mod_D": (
            descriptor_for("pure_braid_mod_D", 3),
            parse_pure_word("a[1,2]", 3),
            GarsideForm,
        ),
        "central_ext_top": (_top(3), parse_word("s1", 3), CentralExtElement),
    }
    for tag, (d, w, expected_type) in cases.items():
        e = element_from_word(d, w)
        assert e.descriptor == d
        assert isinstance(e.payload, expected_type), tag


def test_mod_delta_sq_payload_reduces_delta_power():
    d = descriptor_for("braid_mod_delta_sq", 3)
    for m in range(-3, 4):
        e = element_from_word(d, power(delta_word(3), 2 * m))
        assert e.payload.delta_power == 0 and e.payload.factors == ()
        o = element_from_word(d, power(delta_word(3), 2 * m + 1))
        assert o.payload.delta_power == 1 and o.payload.factors == ()


def test_alphabet_errors():
    with pytest.raises(AlphabetError):
        element_from_word(descriptor_for("braid", 3), parse_pure_word("a[1,2]", 3))
    with pytest.raises(AlphabetError):
        element_from_word(descriptor_for("pure_braid", 3), parse_word("s1", 3))
    with pytest.raises(AlphabetError):
        element_from_word(descriptor_for("braid", 3), parse_word("s1", 4))
    with pytest.raises(AlphabetError):
        element_from_word(descriptor_for("integers"), parse_word("s1", 3))
    with pytest.raises(AlphabetError):
        equal_in_group(descriptor_for("integers"), 1, parse_word("s1", 3))


def test_exponent_parity_invariant():
    rng = random.Random(31)
    d = _top(4)
    for _ in range(200):
        w = BraidWord(4, tuple(helpers.random_letters(rng, 4, rng.randrange(0, 14))))
        e = element_from_word(d, w).payload
        assert exponent_sum(w) == 2 * e.twist + e.perm.inversions()


# ---------------------------------------------------------------------------
# congruence: inserting defining relators never changes the element


def _random_word_for(d, rng, length):
    if d.tag == "integers":
        return rng.randint(-5, 5)
    if d.tag == "trivial":
        return None
    if d.tag in ("pure_braid", "pure_braid_mod_D"):
        k = d.parameter
        pairs = [(i, j) for j in range(2, k + 1) for i in range(1, j)]
        return tuple(
            (PureGeneratorId(*rng.choice(pairs), k), rng.choice((1, -1)))
            for _ in range(length)
        )
    k = d.parameter
    return BraidWord(k, tuple(helpers.random_letters(rng, k, length)))


def _insert_relator_word(d, w, rng):
    rels = descriptor_relators(d)
    if d.tag == "integers":
        return w + rng.choice(rels)
    rel = rng.choice(rels)
    if isinstance(w, BraidWord):
        cut = rng.randrange(len(w.letters) + 1)
        body = rel.letters if rng.random() < 0.5 else tuple(
            (i, -s) for i, s in reversed(rel.letters)
        )
        return BraidWord(w.strands, w.letters[:cut] + body + w.letters[cut:])
    cut = rng.randrange(len(w) + 1)
    body = rel if rng.random() < 0.5 else tuple((g, -s) for g, s in reversed(rel))
    return w[:cut] + body + w[cut:]


@pytest.mark.parametrize(
    "tag,parameter",
    [
        ("integers", 0),
        ("symmetric", 4),
        ("braid", 4),
        ("pure_braid", 4),
        ("braid_mod_delta_sq", 4),
        ("pure_braid_mod_D", 4),
        ("central_ext_top", 4),
    ],
)
def test_relator_insertion_congruence(tag, parameter):
    rng = random.Random(hash(tag) & 0xFFFF)
    d = descriptor_for(tag, parameter)
    for _ in range(60):
        w = _random_word_for(d, rng, rng.randrange(0, 10))
        v = _insert_relator_word(d, w, rng)
        assert equal_in_group(d, w, v), (tag, w, v)
        assert element_from_word(d, w).payload == element_from_word(d, v).payload


def test_identity_words():
    for tag, parameter in [
        ("trivial", 0),
        ("integers", 0),
        ("symmetric", 3),
        ("braid", 3),
        ("pure_braid", 3),
        ("braid_mod_delta_sq", 3),
        ("pure_braid_mod_D", 3),
        ("central_ext_top", 3),
    ]:
        d = descriptor_for(tag, parameter)
        w = identity_word(d)
        assert equal_in_group(d, w, w)
        for rel_as_word in (descriptor_relators(d) or [w])[:3]:
            if tag == "integers":
                continue
            assert equal_in_group(d, w, rel_as_word)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_symmetric_relators_define_the_symmetric_group(k):
    rels = descriptor_relators(descriptor_for("symmetric", k))
    gens = tuple(f"s{i}" for i in range(1, k))
    pres = Presentation(gens, tuple(tuple((f"s{i}", s) for i, s in r.letters) for r in rels))
    table = todd_coxeter(pres)
    assert table.status == "complete" and table.num_cosets == math.factorial(k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_top_relators_define_the_top_group(n):
    # read back over the Artin-like alphabet, the relators must present the
    # group whose quotient by <T^m> has order m (n+1)!; the braid-like triples
    # over the geometric letters present an infinite group from n = 3 on
    rels = descriptor_relators(descriptor_for("central_ext_top", n + 1))
    assert central_ext_relators(n) == rels
    gens = tuple(f"s{i}" for i in range(1, n + 1))
    pres = Presentation(gens, tuple(geometric_to_artin_word(r) for r in rels))
    for m in (1, 2):
        table = todd_coxeter(pres, (geometric_to_artin_word(power(central_element(n), m)),))
        assert table.status == "complete" and table.num_cosets == m * math.factorial(n + 1)


def test_relators_are_bounded():
    with pytest.raises(PresentationError, match="relator letters"):
        descriptor_relators(descriptor_for("pure_braid", 10**4))
    # unordered_top:80 has 12792 letters, spelled with sigma_prime 1010568
    assert len(descriptor_relators(descriptor_for("central_ext_top", 79))) == 3080
    with pytest.raises(BraidError, match="over the limit"):
        descriptor_relators(descriptor_for("central_ext_top", 80))


# ---------------------------------------------------------------------------
# tau, sigma-prime, the central element


def test_tau_examples():
    d = _top(3)
    assert tau(d, parse_word("s1", 3)) == star_transposition(3, 1)
    assert star_transposition(3, 1).images == (2, 1, 3)
    assert tau(d, parse_word("s1^2", 3)).is_identity()
    d4 = descriptor_for("braid_mod_delta_sq", 4)
    assert tau(d4, power(delta_word(4), 2)).is_identity()
    assert tau(descriptor_for("symmetric", 3), parse_word("s1 s2", 3)).images == (3, 1, 2)
    with pytest.raises(GroupError):
        tau(descriptor_for("pure_braid", 3), parse_pure_word("a[1,2]", 3))
    with pytest.raises(GroupError):
        star_transposition(3, 3)


def test_tau_is_a_homomorphism_onto_star_transpositions():
    rng = random.Random(37)
    d = _top(4)
    for _ in range(100):
        u = BraidWord(4, tuple(helpers.random_letters(rng, 4, rng.randrange(0, 8))))
        v = BraidWord(4, tuple(helpers.random_letters(rng, 4, rng.randrange(0, 8))))
        assert tau(d, multiply(u, v)) == tau(d, u).compose(tau(d, v))


def test_sigma_prime_examples():
    assert sigma_prime(1, 2) == parse_word("s1", 3)
    assert sigma_prime(2, 2) == parse_word("s1 s2 s1^-1", 3)
    assert tau(_top(3), sigma_prime(2, 2)).images == (1, 3, 2)
    for n in range(2, 5):
        d = _top(n + 1)
        t_sq = element_from_word(d, central_element(n)).payload
        for i in range(1, n + 1):
            sq = multiply(sigma_prime(i, n), sigma_prime(i, n))
            assert element_from_word(d, sq).payload == t_sq
    with pytest.raises(GroupError):
        sigma_prime(0, 2)
    with pytest.raises(GroupError):
        sigma_prime(3, 2)


def test_sigma_prime_satisfies_braid_and_commutation_relations():
    n = 4
    d = _top(n + 1)
    for i in range(1, n):
        lhs = multiply(multiply(sigma_prime(i, n), sigma_prime(i + 1, n)), sigma_prime(i, n))
        rhs = multiply(multiply(sigma_prime(i + 1, n), sigma_prime(i, n)), sigma_prime(i + 1, n))
        assert equal_in_group(d, lhs, rhs)
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            lhs = multiply(sigma_prime(i, n), sigma_prime(j, n))
            rhs = multiply(sigma_prime(j, n), sigma_prime(i, n))
            assert equal_in_group(d, lhs, rhs)


def test_central_element_is_central():
    rng = random.Random(41)
    for n in (2, 3):
        d = _top(n + 1)
        t = central_element(n)
        for _ in range(60):
            w = BraidWord(n + 1, tuple(helpers.random_letters(rng, n + 1, rng.randrange(0, 10))))
            assert equal_in_group(d, multiply(t, w), multiply(w, t))


def test_central_ext_relators_hold():
    for n in (2, 3, 4):
        d = _top(n + 1)
        for rel in central_ext_relators(n):
            assert equal_in_group(d, rel, BraidWord(n + 1))


def test_kernel_of_tau_is_generated_by_the_center():
    # spot check of exactness: words with trivial tau are powers of T
    rng = random.Random(43)
    d = _top(3)
    for _ in range(150):
        w = BraidWord(3, tuple(helpers.random_letters(rng, 3, 2 * rng.randrange(0, 7))))
        e = element_from_word(d, w).payload
        if tau(d, w).is_identity():
            assert e.perm.is_identity()
            assert equal_in_group(d, w, power(central_element(2), e.twist))


# ---------------------------------------------------------------------------
# the model against an independent coset-enumeration oracle


def test_central_ext_model_matches_todd_coxeter():
    rng = random.Random(47)
    n, m = 2, 3
    p = builtin_presentation("unordered_top", n + 1)
    t_word = (("s1", 1),) * (2 * m)
    table = todd_coxeter(p, subgroup=(t_word,))
    assert table.status == "complete" and table.num_cosets == m * 6
    d = _top(n + 1)
    for _ in range(150):
        u = BraidWord(3, tuple(helpers.random_letters(rng, 3, rng.randrange(0, 12))))
        v = BraidWord(3, tuple(helpers.random_letters(rng, 3, rng.randrange(0, 12))))
        eu, ev = element_from_word(d, u).payload, element_from_word(d, v).payload
        model_equal_mod_tm = eu.perm == ev.perm and (eu.twist - ev.twist) % m == 0
        quotient = geometric_to_artin_word(u) + tuple(
            (g, -s) for g, s in reversed(geometric_to_artin_word(v))
        )
        assert (table.trace(quotient) == 0) == model_equal_mod_tm


def test_geometric_to_artin_word_examples():
    w = BraidWord(3, ((2, 1),))
    assert geometric_to_artin_word(w) == (("s1", -1), ("s2", 1), ("s1", 1))
    winv = BraidWord(3, ((2, -1),))
    assert geometric_to_artin_word(winv) == (("s1", -1), ("s2", -1), ("s1", 1))
    assert geometric_to_artin_word(BraidWord(3, ((1, 1),))) == (("s1", 1),)
