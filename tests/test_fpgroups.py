"""Finitely presented groups: presentations, coset enumeration, abelianization."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from confgroups import fpgroups
from confgroups.braids import (
    _MAX_LETTERS,
    BraidError,
    BraidWord,
    PureGeneratorId,
    equal_in_braid,
    garside_normal_form,
    inverse as braid_inverse,
    multiply as braid_multiply,
    parse_pure_word,
    parse_word,
    pure_generator,
)
from confgroups.fpgroups import (
    AbelianInvariants,
    CosetTable,
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
    for letter in (("b", 1), ("a", 0), ("a",), ("a", 1, 1), 7):
        with pytest.raises(PresentationError):
            Presentation(("a",), ((("a", 1), letter),))


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


_BUILTIN_NAMES = (
    "artin", "braid_mod_delta_sq", "unordered_top", "symmetric", "pure_braid", "pure_braid_mod_D"
)


def _closed_form_letters(name, k):
    row = fpgroups._BUILTINS[name]
    return row.alphabet.letters(k) + row.letters(k)


def test_relator_letter_counts_are_the_generated_totals():
    assert set(_BUILTIN_NAMES) == set(fpgroups._BUILTINS)
    for name in _BUILTIN_NAMES:
        for k in range(2, 14):
            total = sum(len(rel) for rel in builtin_presentation(name, k).relators)
            assert _closed_form_letters(name, k) == total, (name, k)
    # the budget's edges: pure_braid up to 32 strands, artin up to 708, symmetric up to 707
    for name, k in (("pure_braid", 32), ("artin", 708), ("symmetric", 707)):
        assert _closed_form_letters(name, k) <= _MAX_LETTERS < _closed_form_letters(name, k + 1)
        with pytest.raises(PresentationError, match="relator letters"):
            builtin_presentation(name, k + 1)


def test_builtin_relators_and_matrices_match_the_references():
    # relators in order, and exponent sums read from the words by generator name
    for name in fpgroups._BUILTINS:
        for k in range(2, 13):
            p = builtin_presentation(name, k)
            assert p.relators == helpers.reference_builtin_relators(name, k), (name, k)
            m = relator_matrix(p)
            assert m.entries == helpers.reference_relator_matrix(p), (name, k)
            # every relator whose sums cancel holds the one zero row
            assert len({id(row) for row in m.entries if not any(row)}) <= 1, (name, k)


def test_oversized_presentation_is_refused_before_generation(monkeypatch):
    def fail(k):
        raise AssertionError("generators or relators made for an oversized request")

    for name, row in fpgroups._BUILTINS.items():
        alphabet = row.alphabet._replace(generators=fail, relators=fail)
        monkeypatch.setitem(
            fpgroups._BUILTINS, name, dataclasses.replace(row, alphabet=alphabet, relators=fail)
        )
    for name in _BUILTIN_NAMES:
        with pytest.raises(PresentationError, match="relator letters"):
            builtin_presentation(name, 10**4)
    with pytest.raises(PresentationError, match="relator letters"):
        builtin_presentation("artin", 10**7)


def test_symmetric_is_artin_then_the_squares():
    for k in range(2, 9):
        artin = builtin_presentation("artin", k)
        squares = tuple(((g, 1), (g, 1)) for g in artin.generators)
        assert builtin_presentation("symmetric", k) == Presentation(
            artin.generators, artin.relators + squares
        )


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


def test_symmetric_group_orders():
    for k, order in ((3, 6), (4, 24)):
        p = builtin_presentation("symmetric", k)
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
    # a walk off the edge of a capped table meets a gap
    small, a6 = todd_coxeter(p, max_cosets=5), (("a", 1),) * 6
    assert small.trace(a6) is None and helpers.reference_trace(small, a6) is None


def test_trace_walks_the_table():
    p = builtin_presentation("symmetric", 3)
    table = todd_coxeter(p)
    w = parse_abstract_word("s1 s2 s1", p.generators)
    c = table.trace(w)
    assert c is not None
    assert table.trace(inverse_word(w), start=c) == 0
    for rel in p.relators:
        assert table.trace(rel, 3) == 3


def test_malformed_coset_tables_fail_the_check_and_the_walk():
    p = Presentation(("a",), ())
    a = (("a", 1),)
    # an entry past the last coset, a row without an inverse column, and
    # columns that do not invert each other
    for rows in (((5, 5),), ((0,),), ((1, 0), (0, 1))):
        assert not CosetTable(p, (), "complete", rows).verify()
    far = CosetTable(p, (), "complete", ((5, 5),))
    for word, start in ((a, 3), ((), 3), ((), -1), (a, 0)):
        with pytest.raises(PresentationError, match="is not a coset index"):
            far.trace(word, start)
    with pytest.raises(PresentationError, match="one entry per column"):
        CosetTable(p, (), "complete", ((0,),)).trace(a)
    one = CosetTable(p, (), "complete", ((0, 0),))
    assert one.verify() and one.trace(a * 3) == 0
    # the columns invert each other, but a is a 3-cycle, so a^2 does not close
    cycle = CosetTable(Presentation(("a",), (a * 2,)), (), "complete", ((1, 2), (2, 0), (0, 1)))
    assert not cycle.verify() and not helpers.reference_verify(cycle)


def test_max_cosets_validation():
    with pytest.raises(PresentationError):
        todd_coxeter(builtin_presentation("artin", 3), max_cosets=0)


def test_coset_table_budget_refuses_oversized_enumerations(monkeypatch, capsys):
    from confgroups.cli import main

    # 400 entries hold 20 cosets of the free group on a, b: 4 columns and
    # 16 for overhead per row
    monkeypatch.setattr(fpgroups, "_MAX_TABLE_ENTRIES", 400)
    free = Presentation(("a", "b"), ())
    assert todd_coxeter(free, max_cosets=20).status == "capped"
    with pytest.raises(PresentationError, match="21 cosets x 4 columns is over the limit"):
        todd_coxeter(free, max_cosets=10**9)
    assert todd_coxeter(parse_presentation("gens: a, b ; rels: a a a, b")).num_cosets == 3
    argv = ["enumerate", "--presentation", "gens: a, b ; rels:", "--max-cosets", "1000000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "confgroups: error: coset table of 21 cosets x 4 columns is over the limit "
        "of 400 entries (16 per row for overhead)\n"
    )


_BAD_LETTERS = (("z", 1), ("s1", 0), ("s1", 5), ("s1",), ("s1", 1, 1), 7)


@pytest.mark.parametrize("letter", _BAD_LETTERS, ids=repr)
def test_malformed_subgroup_letter_is_a_presentation_error(letter):
    # an unknown name is not a KeyError, and ("s1", 0) is not s1^-1 nor ("s1", 5) s1
    with pytest.raises(PresentationError):
        todd_coxeter(builtin_presentation("artin", 3), ((letter,),))


@pytest.mark.parametrize("letter", _BAD_LETTERS, ids=repr)
def test_malformed_trace_letter_is_a_presentation_error(letter):
    table = todd_coxeter(builtin_presentation("symmetric", 3))
    with pytest.raises(PresentationError):
        table.trace((letter,))


def _enumerated_tables(enumerate_cosets=todd_coxeter):
    """Complete and capped tables of builtin families and random presentations."""
    tables = []
    for cap in (1, 4, 30, 10**5):
        for k in (3, 4):
            top = builtin_presentation("unordered_top", k)
            tables.append(enumerate_cosets(top, ((("s1", 1), ("s1", 1)),), max_cosets=cap))
            tables.append(enumerate_cosets(builtin_presentation("symmetric", k), max_cosets=cap))
            pure = builtin_presentation("pure_braid_mod_D", k)
            sub = tuple(((g, 1), (g, 1)) for g in pure.generators)
            tables.append(enumerate_cosets(pure, sub, max_cosets=cap))
    rng = random.Random(61)
    for _ in range(60):
        gens = ("a", "b", "c")[: rng.randint(1, 3)]

        def word(lo, hi):
            return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi)))

        p = Presentation(gens, tuple(word(1, 6) for _ in range(rng.randint(1, 4))))
        sub = tuple(word(0, 3) for _ in range(rng.randint(0, 2)))
        tables.append(enumerate_cosets(p, sub, max_cosets=rng.choice((5, 50, 500))))
    # index 1; a coset dies while its own relators are scanned
    tables.append(enumerate_cosets(parse_presentation("gens: a, b ; rels: B A b, b a")))
    # <T^2> in the top group on 5 points, index 2 * 5! = 240, and Coxeter's
    # S_5 with its generators and relators out of order, index 120
    s1 = ("s1", 1)
    tables.append(enumerate_cosets(builtin_presentation("unordered_top", 5), ((s1,) * 4,)))
    tables.append(enumerate_cosets(parse_presentation(_COXETER_S5)))
    return tables


_COXETER_S5 = (
    "gens: q3, q1, q4, q2 ; rels: q2 q3 q2 q3 q2 q3, q1 q1, q1 q4 q1 q4, q4 q4, "
    "q3 q4 q3 q4 q3 q4, q1 q2 q1 q2 q1 q2, q2 q2, q3 q3, q1 q3 q1 q3, q2 q4 q2 q4"
)


def test_closing_check_agrees_with_reference_on_enumerated_tables():
    tables = _enumerated_tables()
    statuses = {t.status for t in tables}
    assert statuses == {"complete", "capped"}
    assert [t.num_cosets for t in tables[-2:]] == [240, 120]
    for table in tables:
        assert table.verify() == helpers.reference_verify(table)
        assert table.verify() == (table.status == "complete")


def test_enumeration_matches_stale_entry_reference_on_enumerated_tables():
    # the earlier enumerator resolved every table read with find; the tables agree exactly
    tables = _enumerated_tables()
    references = _enumerated_tables(helpers.reference_todd_coxeter)
    assert [(t.status, t.table) for t in tables] == [(t.status, t.table) for t in references]


def test_closing_check_agrees_with_reference_on_corrupted_tables():
    good = todd_coxeter(builtin_presentation("symmetric", 4))
    top = todd_coxeter(builtin_presentation("unordered_top", 4), ((("s1", 1), ("s1", 1)),))
    for table in (good, top):
        rows = [list(r) for r in table.table]
        gap = [r[:] for r in rows]
        gap[5][1] = None
        swapped = [r[:] for r in rows]
        swapped[2][0], swapped[7][0] = swapped[7][0], swapped[2][0]
        corrupted = [
            dataclasses.replace(table, table=tuple(map(tuple, gap))),
            dataclasses.replace(table, table=tuple(map(tuple, swapped))),
            dataclasses.replace(table, subgroup=table.subgroup + ((("s2", 1),),)),
            dataclasses.replace(table, status="capped"),
        ]
        assert table.verify() and helpers.reference_verify(table)
        for bad in corrupted:
            assert not helpers.reference_verify(bad)
            assert not bad.verify()


def test_closing_check_agrees_with_reference_on_edge_tables():
    a = (("a", 1),)
    free, square, bare = Presentation(("a",), ()), Presentation(("a",), (a * 2,)), Presentation((), ())
    edges = {
        # no rows: every coset table holds coset 0, with or without subgroup words
        (free, (), ()): False,
        (free, (a,), ()): False,
        (bare, (), ()): False,
        # one row, where every entry must be 0
        (free, (), ((0, 0),)): True,
        (square, (a, a * 3), ((0, 0),)): True,
        (free, (), ((0, 1),)): False,
        # zero generators: rows without entries
        (bare, (), ((),)): True,
        (bare, ((),), ((), ())): True,
        # an entry past the last coset, a short row, columns that do not
        # invert each other, and a 3-cycle where a^2 must close
        (free, (), ((5, 5),)): False,
        (free, (), ((0,),)): False,
        (free, (), ((1, 0), (0, 1))): False,
        (square, (), ((1, 2), (2, 0), (0, 1))): False,
        (free, (), ((1, 2), (2, 0), (0, 1))): True,
        # a True where an index belongs
        (free, (), ((True, 0),)): False,
    }
    for (p, sub, rows), expected in edges.items():
        table = CosetTable(p, sub, "complete", rows)
        assert table.verify() is expected
        assert helpers.reference_verify(table) is expected
        assert dataclasses.replace(table, status="capped").verify() is False


def test_todd_coxeter_raises_when_closing_check_fails(monkeypatch):
    checked = []
    monkeypatch.setattr(fpgroups.CosetTable, "verify", lambda self: checked.append(self) or False)
    with pytest.raises(RuntimeError, match="closing consistency check"):
        todd_coxeter(builtin_presentation("symmetric", 3))
    assert len(checked) == 1
    # a capped table is not checked and is returned as it is
    capped = todd_coxeter(Presentation(("a", "b"), ()), max_cosets=50)
    assert capped.status == "capped" and len(checked) == 1


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def test_smith_examples():
    assert smith_normal_form(IntegerMatrix.from_rows([[1, 0], [0, 1]])) == (1, 1)
    # 2 does not divide 3 (or 5): the pivot row gains the other row
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0, 0], [0, 4, 5]])) == (1, 2)
    assert smith_normal_form(IntegerMatrix.from_rows([[2**62, 3], [5, 2**62]])) == (1, 2**124 - 15)
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


def test_smith_matches_three_phase_reference():
    rng = random.Random(24)
    for _ in range(400):
        nr, nc = rng.randint(0, 12), rng.randint(0, 12)
        bound, density = rng.choice((1, 3, 40, 10**12)), rng.random()
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        m = IntegerMatrix.from_rows(rows, cols=nc)
        assert smith_normal_form(m) == helpers.reference_smith_normal_form(m)
    for name in fpgroups._BUILTINS:
        for k in range(2, 13):
            m = relator_matrix(builtin_presentation(name, k))
            assert smith_normal_form(m) == helpers.reference_smith_normal_form(m), (name, k)


def test_smith_matches_references_on_sparse_matrices():
    # few nonzeros per row from {+-1, +-2, +-3, +-6}: the unit pass's fill-in
    # both creates units (3 - 2) and cancels them (1 - 1)
    rng = random.Random(25)
    values = (1, -1, 2, -2, 3, -3, 6, -6)
    for _ in range(600):
        nr, nc = rng.randint(0, 60), rng.randint(1, 40)
        if rng.random() < 0.3:
            nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[0] * nc for _ in range(nr)]
        for row in rows:
            for _ in range(rng.randint(1, 3)):
                row[rng.randrange(nc)] = rng.choice(values)
        got = smith_normal_form(IntegerMatrix.from_rows(rows, cols=nc))
        assert got == helpers.reference_smith_normal_form(IntegerMatrix.from_rows(rows, cols=nc))
        if nr <= 3 and nc <= 3:
            assert got == helpers.minor_gcd_invariants(rows)


def test_smith_gives_builtin_invariants_in_closed_form():
    # the whole invariant tuple of every builtin relator matrix, 1s included
    closed = {
        "artin": lambda k: (1,) * (k - 2),
        "unordered_top": lambda k: (1,) * (k - 2),
        "braid_mod_delta_sq": lambda k: (1,) * (k - 2) + (k * (k - 1),),
        "symmetric": lambda k: (1,) * (k - 2) + (2,),
        "pure_braid": lambda k: (),
        "pure_braid_mod_D": lambda k: (1,),
    }
    assert closed.keys() == fpgroups._BUILTINS.keys()
    for name, expected in closed.items():
        for k in range(2, 13):
            m = relator_matrix(builtin_presentation(name, k))
            assert smith_normal_form(m) == expected(k), (name, k)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.5]],
        [[2.0, 4.0], [6.0, 3.0]],
        [["a"]],
        [[True, 0]],
        [[np.int64(2**62), np.int64(3)], [np.int64(5), np.int64(2**62)]],
    ],
    ids=["float", "integral-floats", "str", "bool", "numpy-int64"],
)
def test_integer_matrix_refuses_entries_that_are_not_ints(rows):
    with pytest.raises(PresentationError, match="is not an int"):
        IntegerMatrix.from_rows(rows)


def test_integer_matrix_reads_a_shared_row_as_its_copies():
    row, zero = (2, 4), (0, 0)
    shared = IntegerMatrix(4, 2, (zero, row, zero, row))
    copies = IntegerMatrix.from_rows([[0, 0], [2, 4], [0, 0], [2, 4]])
    assert smith_normal_form(shared) == smith_normal_form(copies) == (2,)
    with pytest.raises(PresentationError, match="0.0 is not an int"):
        IntegerMatrix(3, 2, (zero, (0.0, 4), zero))


def test_integer_matrix_from_rows_honours_explicit_cols():
    assert IntegerMatrix.from_rows([[1, 2]], cols=2).cols == 2
    assert IntegerMatrix.from_rows([], cols=3) == IntegerMatrix(0, 3, ())
    with pytest.raises(PresentationError, match="dimensions"):
        IntegerMatrix.from_rows([[1, 2]], cols=3)


def test_relators_are_encoded_once_per_presentation(monkeypatch):
    encoded = []
    columns = fpgroups._columns

    def counting(generators, words):
        encoded.append(words)
        return columns(generators, words)

    monkeypatch.setattr(fpgroups, "_columns", counting)
    p = builtin_presentation("symmetric", 4)
    assert abelianization(p) == AbelianInvariants(0, (2,))
    table = todd_coxeter(p)
    assert table.num_cosets == 24
    assert [w for w in encoded if w == p.relators] == [p.relators]
    # subgroup words and traced words are encoded as they come
    encoded.clear()
    sub = ((("s1", 1),),)
    assert todd_coxeter(p, sub).num_cosets == 12
    assert table.trace(sub[0]) is not None
    assert encoded == [sub, sub, sub]


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


# ---------------------------------------------------------------------------
# text fuzzing: only typed errors escape the word and presentation parsers

_TEXT = st.text(alphabet="sa[],^-0123 delta\tgnrSA:;_²٣", max_size=30)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_TEXT, st.builds("gens: {} ; rels: {}".format, _TEXT, _TEXT)), st.integers(1, 5))
@example("s²", 3)
@example("a[٣,4]^٣ s٣^-²", 5)
@example("gens: s², s ; rels: S² s", 3)
def test_text_parsers_raise_only_typed_errors(text, size):
    parsers = (
        lambda: parse_word(text, size),
        lambda: parse_pure_word(text, size),
        lambda: parse_abstract_word(text, ("a", "s1", "s²")),
        lambda: parse_presentation(text),
    )
    for parse in parsers:
        try:
            parse()
        except (BraidError, PresentationError):
            pass
