"""Finitely presented groups: presentations, coset enumeration, abelianization."""

import random

import pytest

import helpers
from confgroups.braids import (
    BraidWord,
    PureGeneratorId,
    equal_in_braid,
    garside_normal_form,
    inverse as braid_inverse,
    multiply as braid_multiply,
    pure_generator,
)
from confgroups.fpgroups import (
    AbelianInvariants,
    IntegerMatrix,
    Presentation,
    PresentationError,
    abelianization,
    builtin_presentation,
    commutator_word,
    format_abstract_word,
    format_presentation,
    inverse_word,
    parse_abstract_word,
    parse_presentation,
    relator_matrix,
    smith_normal_form,
    todd_coxeter,
    verify_homomorphism,
)


# ---------------------------------------------------------------------------
# words and presentations as data


def test_word_helpers():
    w = parse_abstract_word("a b A", ("a", "b"))
    assert w == (("a", 1), ("b", 1), ("a", -1))
    assert inverse_word(w) == (("a", 1), ("b", -1), ("a", -1))
    assert format_abstract_word(w) == "a b A"
    u = (("a", 1),)
    v = (("b", 1),)
    assert commutator_word(u, v) == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    with pytest.raises(PresentationError):
        parse_abstract_word("a c", ("a", "b"))


def test_presentation_validation():
    Presentation(("a", "b"), ((("a", 1), ("b", -1)),))
    with pytest.raises(PresentationError):
        Presentation(("a", "a"), ())
    with pytest.raises(PresentationError):
        Presentation(("A",), ())
    with pytest.raises(PresentationError):
        Presentation(("a",), ((("b", 1),),))


def test_parse_and_format_presentation():
    p = parse_presentation("gens: a, b ; rels: a b a B A B")
    assert p.generators == ("a", "b")
    assert p.relators == ((("a", 1), ("b", 1), ("a", 1), ("b", -1), ("a", -1), ("b", -1)),)
    assert parse_presentation(format_presentation(p)) == p
    q = parse_presentation("gens: x ; rels:")
    assert q == Presentation(("x",), ())
    with pytest.raises(PresentationError):
        parse_presentation("gens: a")
    with pytest.raises(PresentationError):
        parse_presentation("rels: a ; gens: a")


# ---------------------------------------------------------------------------
# builtin presentations


def test_artin_3():
    p = builtin_presentation("artin", 3)
    assert p.generators == ("s1", "s2")
    assert len(p.relators) == 1
    assert format_abstract_word(p.relators[0]) == "s1 s2 s1 S2 S1 S2"


def test_pure_braid_3_relator_count():
    p = builtin_presentation("pure_braid", 3)
    assert p.generators == ("a1_2", "a1_3", "a2_3")
    # one triple, two YB3 relators, no quadruples
    assert len(p.relators) == 2


def test_pure_braid_4_relator_count():
    p = builtin_presentation("pure_braid", 4)
    assert len(p.generators) == 6
    # four triples x 2 + one quadruple x 4
    assert len(p.relators) == 12


def test_pure_braid_mod_D_2_is_trivial_presentation():
    p = builtin_presentation("pure_braid_mod_D", 2)
    assert p.generators == ("a1_2",)
    assert p.relators == ((("a1_2", 1),),)


def test_unordered_top_relators():
    p = builtin_presentation("unordered_top", 3)
    assert p.generators == ("s1", "s2")
    texts = [format_abstract_word(r) for r in p.relators]
    assert "s1 s1 S2 S2" in texts


def test_builtin_errors():
    with pytest.raises(PresentationError):
        builtin_presentation("artin", 1)
    with pytest.raises(PresentationError):
        builtin_presentation("nonsense", 3)
    # over the relator letter budget: pure_braid:k has about k^4 letters
    for name in ("pure_braid", "artin"):
        with pytest.raises(PresentationError, match="relator letters"):
            builtin_presentation(name, 10**4)


# ---------------------------------------------------------------------------
# homomorphism verification


def _braid_hom_kit(k):
    return dict(
        multiply=braid_multiply,
        inverse=braid_inverse,
        identity=BraidWord(k),
        equals=equal_in_braid,
    )


def test_pure_braid_inclusion_is_a_homomorphism():
    p = builtin_presentation("pure_braid", 4)
    images = {}
    for j in range(2, 5):
        for i in range(1, j):
            images[f"a{i}_{j}"] = pure_generator(PureGeneratorId(i, j, 4))
    report = verify_homomorphism(p, images, **_braid_hom_kit(4))
    assert report.passes
    assert len(report.results) == 12
    assert report.failed_relators() == ()


def test_artin_into_symmetric_group():
    p = builtin_presentation("artin", 3)
    images = {"s1": helpers.perm_transposition(3, 0, 1), "s2": helpers.perm_transposition(3, 1, 2)}
    report = verify_homomorphism(
        p,
        images,
        multiply=helpers.perm_compose,
        inverse=lambda q: tuple(q.index(i) for i in range(len(q))),
        identity=tuple(range(3)),
        equals=lambda a, b: a == b,
    )
    assert report.passes


def test_artin_into_integers_exponent_sum():
    p = builtin_presentation("artin", 4)
    report = verify_homomorphism(
        p,
        {g: 1 for g in p.generators},
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=0,
        equals=lambda a, b: a == b,
    )
    assert report.passes


def test_homomorphism_failure_is_reported():
    p = builtin_presentation("artin", 3)
    report = verify_homomorphism(
        p,
        {"s1": 1, "s2": 2},
        multiply=lambda a, b: a + b,
        inverse=lambda a: -a,
        identity=0,
        equals=lambda a, b: a == b,
    )
    assert not report.passes
    assert len(report.failed_relators()) == 1


def test_missing_image_raises():
    p = builtin_presentation("artin", 3)
    with pytest.raises(PresentationError):
        verify_homomorphism(
            p,
            {"s1": 0},
            multiply=lambda a, b: a + b,
            inverse=lambda a: -a,
            identity=0,
            equals=lambda a, b: a == b,
        )


# ---------------------------------------------------------------------------
# Todd-Coxeter


def _with_squares(p):
    squares = tuple(((g, 1), (g, 1)) for g in p.generators)
    return Presentation(p.generators, p.relators + squares)


def test_symmetric_group_orders():
    for k, order in ((3, 6), (4, 24)):
        p = _with_squares(builtin_presentation("artin", k))
        table = todd_coxeter(p)
        assert table.status == "complete"
        assert table.num_cosets == order
        assert table.verify()


def test_unordered_top_central_quotients():
    p = builtin_presentation("unordered_top", 3)
    t = (("s1", 1), ("s1", 1))
    one = todd_coxeter(p, subgroup=(t,))
    assert one.status == "complete" and one.num_cosets == 6
    two = todd_coxeter(p, subgroup=(t + t,))
    assert two.status == "complete" and two.num_cosets == 12
    assert one.verify() and two.verify()


def test_full_subgroup_has_index_1():
    p = builtin_presentation("artin", 3)
    table = todd_coxeter(p, subgroup=tuple(((g, 1),) for g in p.generators))
    assert table.status == "complete"
    assert table.num_cosets == 1


def test_cap_is_a_normal_outcome():
    # the free group on two generators never closes; tiny cap forces "capped"
    p = Presentation(("a", "b"), ())
    table = todd_coxeter(p, max_cosets=50)
    assert table.status == "capped"
    assert not table.verify()


def test_trace_walks_the_table():
    p = _with_squares(builtin_presentation("artin", 3))
    table = todd_coxeter(p)
    w = parse_abstract_word("s1 s2 s1", p.generators)
    c = table.trace(w)
    assert c is not None
    assert table.trace(inverse_word(w), start=c) == 0
    for rel in p.relators:
        assert table.trace(rel, 3) == 3


def test_max_cosets_validation():
    with pytest.raises(PresentationError):
        todd_coxeter(builtin_presentation("artin", 3), max_cosets=0)


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def test_smith_examples():
    assert smith_normal_form(IntegerMatrix.from_rows([[1, 0], [0, 1]])) == (1, 1)
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(IntegerMatrix.from_rows([[0, 0, 0]])) == ()
    assert smith_normal_form(IntegerMatrix.from_rows([], cols=3)) == ()


def test_smith_against_minor_gcd_oracle():
    rng = random.Random(21)
    for _ in range(300):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        got = smith_normal_form(IntegerMatrix.from_rows(rows))
        assert got == helpers.minor_gcd_invariants(rows)
        for a, b in zip(got, got[1:]):
            assert b % a == 0


def test_smith_handles_entry_growth():
    # rectangular with mixed signs; compare against the oracle meaning
    rng = random.Random(22)
    for _ in range(100):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        got = smith_normal_form(IntegerMatrix.from_rows(rows))
        assert all(d > 0 for d in got)
        assert len(got) <= min(nr, nc)


def test_abelian_invariants_type():
    assert str(AbelianInvariants(1, ())) == "Z"
    assert str(AbelianInvariants(2, ())) == "Z^2"
    assert str(AbelianInvariants(0, (6,))) == "Z/6"
    assert str(AbelianInvariants(0, ())) == "1"
    assert AbelianInvariants(0, ()).is_trivial()
    with pytest.raises(PresentationError):
        AbelianInvariants(0, (4, 6))
    with pytest.raises(PresentationError):
        AbelianInvariants(0, (1,))


def test_abelianization_examples():
    for k in range(2, 6):
        inv = abelianization(builtin_presentation("artin", k))
        assert inv == AbelianInvariants(1, ())
    assert abelianization(builtin_presentation("braid_mod_delta_sq", 3)) == AbelianInvariants(0, (6,))
    assert abelianization(builtin_presentation("pure_braid_mod_D", 3)) == AbelianInvariants(2, ())
    assert abelianization(builtin_presentation("pure_braid_mod_D", 2)).is_trivial()


def test_relator_matrix_shape():
    p = builtin_presentation("pure_braid", 3)
    m = relator_matrix(p)
    assert m.cols == 3
    assert m.rows == 2
    # YB3 relators are conjugation relations: exponent sums vanish
    assert all(all(e == 0 for e in row) for row in m.entries)


def _add_redundant_relator(p, rng):
    """Tietze move: append a product of conjugated relators (or inverses)."""
    extra = []
    for _ in range(rng.randint(1, 3)):
        rel = list(rng.choice(p.relators))
        if rng.random() < 0.5:
            rel = list(inverse_word(tuple(rel)))
        conj = [(rng.choice(p.generators), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))]
        extra += conj + rel + list(inverse_word(tuple(conj)))
    return Presentation(p.generators, p.relators + (tuple(extra),))


def _add_defined_generator(p, rng):
    """Tietze move: new generator equal to a word in the old ones."""
    name = "zz"
    word = tuple(
        (rng.choice(p.generators), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))
    )
    return Presentation(p.generators + (name,), p.relators + ((( name, 1),) + inverse_word(word),))


def test_abelianization_invariant_under_tietze_moves():
    rng = random.Random(23)
    bases = [
        builtin_presentation("artin", 3),
        builtin_presentation("braid_mod_delta_sq", 3),
        builtin_presentation("pure_braid_mod_D", 3),
        builtin_presentation("unordered_top", 3),
    ]
    for p in bases:
        target = abelianization(p)
        for _ in range(25):
            assert abelianization(_add_redundant_relator(p, rng)) == target
            assert abelianization(_add_defined_generator(p, rng)) == target
