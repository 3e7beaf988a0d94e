"""Classification of the fundamental groups of affine configuration strata.

classify(k, i, n, flavor) names the group of the stratum of k-point
configurations in C^n whose affine span has dimension i, for ordered or
unordered points.  Each descriptor carries a decidable word problem: every
element has one canonical form, and two words are equal exactly when their
canonical forms are (equal_in_group compares them; element_from_word
returns one).

* braid-flavored tags reduce to the Garside normal form (quotients by the
  central half-twist square reduce the Delta power mod 2);
* the symmetric group keeps the permutation image;
* pure-braid words are translated into braid words first -- there is no
  native pure-braid rewriting;
* the top unordered case (i = n = k-1) uses a central-extension model:
  an element is determined by its symmetric-group image together with the
  power of the central element T = s_i^2, computed from the exponent sum
  and the Coxeter length of the image.

Words for the top case are carried in BraidWord containers on n+1 strands,
but the letters mean the geometric generators exchanging the basepoint
region with point i -- their symmetric-group images are the star
transpositions (0 i), not adjacent ones.  sigma_prime(i, n) gives the
change of generators that satisfies the Artin relations.

Everything that differs between the tags lives in one _Family record per
tag, in the _FAMILIES table at the end; every family's relators are those of
fpgroups.builtin_presentation, spelled over the family's own alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .braids import (
    BraidWord,
    GarsideForm,
    Permutation,
    PureGeneratorId,
    _check_letter_budget,
    _invert,
    exponent_sum,
    garside_normal_form,
    parse_pure_word,
    parse_word,
    permutation_image,
    pure_word_to_braid,
)
from .fpgroups import Word, _pure_names, builtin_presentation, inverse_word


class GroupError(ValueError):
    """Invalid classification input or group-element construction."""


class EmptyStratumError(GroupError):
    """The requested (k, i, n) stratum contains no configurations."""


class AlphabetError(GroupError):
    """A word was given over the wrong generator alphabet for its group."""


ORDERED = "ordered"
UNORDERED = "unordered"


@dataclass(frozen=True)
class GroupDescriptor:
    tag: str
    k: int
    i: int
    n: int
    flavor: str

    def __post_init__(self) -> None:
        if self.tag not in _FAMILIES:
            raise GroupError(f"unknown tag {self.tag!r}")
        if self.flavor not in (ORDERED, UNORDERED):
            raise GroupError(f"unknown flavor {self.flavor!r}")

    @property
    def parameter(self) -> int:
        """Strand/point count: k for braid-family tags, n+1 for the top case."""
        if self.tag == "central_ext_top":
            return self.n + 1
        return self.k

    def describe(self) -> str:
        return _FAMILIES[self.tag].name(self.parameter)


def classify(k: int, i: int, n: int, flavor: str) -> GroupDescriptor:
    """The fundamental group of the (k, i, n) stratum, ordered or unordered.

    Nonempty strata need i <= min(k-1, n), with i = 0 exactly when k = 1
    (k points span at most dimension k-1, and 2+ distinct points span at
    least a line).
    """
    if flavor not in (ORDERED, UNORDERED):
        raise GroupError(f"flavor must be ordered or unordered, got {flavor!r}")
    if k < 1 or n < 1 or i < 0 or i > n:
        raise GroupError(f"need k >= 1, n >= 1, 0 <= i <= n; got k={k}, i={i}, n={n}")
    if i > min(k - 1, n) or (i == 0) != (k == 1):
        raise EmptyStratumError(
            f"no configuration of {k} point(s) in C^{n} spans dimension {i}"
        )
    if i == 1 and n == 1:
        tag = "pure_braid" if flavor == ORDERED else "braid"
    elif i == 1 and n > 1:
        tag = "pure_braid_mod_D" if flavor == ORDERED else "braid_mod_delta_sq"
    elif i == n == k - 1:
        tag = "integers" if flavor == ORDERED else "central_ext_top"
    else:
        tag = "trivial" if flavor == ORDERED else "symmetric"
    return GroupDescriptor(tag, k, i, n, flavor)


def descriptor_for(tag: str, parameter: int = 0) -> GroupDescriptor:
    """A descriptor for the named group with a representative (k, i, n);
    parameter is the strand count (braid family) or point count (top case)."""
    family = _FAMILIES.get(tag)
    if family is None:
        raise GroupError(f"unknown tag {tag!r}")
    if family.min_size and parameter < family.min_size:
        raise GroupError(family.too_small.format(tag=tag))
    return GroupDescriptor(tag, *family.representative(parameter), family.flavor)


def case_statement(d: GroupDescriptor) -> str:
    """The classification identity this descriptor instantiates."""
    space = "F" if d.flavor == ORDERED else "C"
    stratum = f"{space}_k^(i,n) with (k,i,n)=({d.k},{d.i},{d.n})"
    return f"pi_1({stratum}) = {_FAMILIES[d.tag].anchor}"


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class CentralExtElement:
    """(twist, perm) invariant of the top unordered group on n+1 points.

    perm acts on {0, ..., n} stored 1-indexed (label j at position j+1); twist
    counts the power of the central element T once a reduced lift of perm is
    split off, so twist = (exponent_sum - inversions(perm)) / 2.
    """

    n_plus_1: int
    twist: int
    perm: Permutation

    def __post_init__(self) -> None:
        if self.perm.size != self.n_plus_1:
            raise GroupError("permutation size must be n+1")


@dataclass(frozen=True)
class GroupElement:
    descriptor: GroupDescriptor
    payload: object  # None | int | Permutation | GarsideForm | CentralExtElement


def star_transposition(n_plus_1: int, i: int) -> Permutation:
    """Image of the i-th geometric generator: exchange labels 0 and i."""
    if not 1 <= i <= n_plus_1 - 1:
        raise GroupError(f"generator index {i} out of range")
    images = list(range(1, n_plus_1 + 1))
    images[0], images[i] = images[i], images[0]
    return Permutation(n_plus_1, tuple(images))


def _star_image(w: BraidWord) -> Permutation:
    # following the i-th star transposition swaps entries 0, i of the inverse image
    inv = list(range(1, w.strands + 1))
    for i, _ in w.letters:
        inv[0], inv[i] = inv[i], inv[0]
    return Permutation(w.strands, _invert(inv))


def _require_integer(d: GroupDescriptor, w: object) -> int:
    if not isinstance(w, int):
        raise AlphabetError("the infinite-cyclic group expects an integer exponent")
    return w


def _require_braid_word(d: GroupDescriptor, w: object) -> BraidWord:
    if not isinstance(w, BraidWord):
        raise AlphabetError(f"{d.tag} expects a word in the s-generators")
    if w.strands != d.parameter:
        raise AlphabetError(
            f"word has {w.strands} strands but {d.describe()} needs {d.parameter}"
        )
    return w


def _require_pure_word(d: GroupDescriptor, w: object) -> BraidWord:
    if isinstance(w, BraidWord):
        raise AlphabetError(f"{d.tag} expects a word in the a[i,j]-generators")
    try:
        letters = tuple(w)  # type: ignore[arg-type]
        for gen, sign in letters:
            if not isinstance(gen, PureGeneratorId) or sign not in (1, -1):
                raise TypeError
    except TypeError:
        raise AlphabetError(f"{d.tag} expects (PureGeneratorId, sign) letters") from None
    return pure_word_to_braid(d.parameter, letters)


def _s_image(d: GroupDescriptor, w: object) -> Permutation:
    return permutation_image(_require_braid_word(d, w))


def _top_element(d: GroupDescriptor, w: object) -> CentralExtElement:
    word = _require_braid_word(d, w)
    perm = _star_image(word)
    # a letter moves the exponent sum by ±1 and the inversions by an odd number: // 2 is exact
    return CentralExtElement(d.parameter, (exponent_sum(word) - perm.inversions()) // 2, perm)


def _garside(convert: Callable[[GroupDescriptor, object], BraidWord], kill_delta_sq: bool):
    """The canonical form of a braid-family tag: the Garside normal form of
    the converted word, whose Delta power is reduced mod 2 when the central
    Delta^2 is killed (the factors are untouched)."""

    def canonical(d: GroupDescriptor, w: object) -> GarsideForm:
        form = garside_normal_form(convert(d, w))
        if kill_delta_sq:
            return GarsideForm(form.strands, form.delta_power & 1, form.factors)
        return form

    return canonical


def element_from_word(d: GroupDescriptor, w: object) -> GroupElement:
    """Canonical payload for the word: see the module docstring per tag."""
    return GroupElement(d, _FAMILIES[d.tag].canonical(d, w))


def equal_in_group(d: GroupDescriptor, u: object, v: object) -> bool:
    """Word problem for the classified group: the canonical forms agree."""
    canonical = _FAMILIES[d.tag].canonical
    return canonical(d, u) == canonical(d, v)


def tau(d: GroupDescriptor, w: object) -> Permutation:
    """Projection to the symmetric group (unordered flavors only)."""
    image = _FAMILIES[d.tag].tau
    if d.flavor != UNORDERED or image is None:
        raise GroupError("tau is defined for unordered groups only")
    return image(d, w)


def _parse_integer_word(text: str) -> int:
    """The exponent of a word in the generator h of the integers: "h^3 H"."""
    total = 0
    for token in text.split():
        base, caret, exp_text = token.partition("^")
        try:
            exp = int(exp_text) if caret else 1
        except ValueError:
            raise AlphabetError(f"bad exponent in token {token!r}") from None
        if base == "h":
            total += exp
        elif base == "H":
            total -= exp
        else:
            raise AlphabetError(f"the infinite-cyclic group uses letters 'h', got {token!r}")
    return total


# ---------------------------------------------------------------------------
# the top unordered case: generators and translations


def sigma_prime(i: int, n: int) -> BraidWord:
    """The Artin-like generator s_1 ... s_(i-1) s_i s_(i-1)^-1 ... s_1^-1 of the
    top group, as a word in the geometric generators (n+1 strand container)."""
    if not 1 <= i <= n:
        raise GroupError(f"need 1 <= i <= n, got i={i}, n={n}")
    up = [(t, 1) for t in range(1, i)]
    down = [(t, -1) for t in range(i - 1, 0, -1)]
    return BraidWord(n + 1, tuple(up + [(i, 1)] + down))


def geometric_to_artin_word(w: BraidWord) -> Word:
    """Rewrite a geometric word over the Artin-like alphabet s1..sn.

    The inverse change of generators is s_i = s'_1^-1 ... s'_(i-1)^-1 s'_i
    s'_(i-1) ... s'_1, so traced words feed the unordered_top presentation.
    """
    letters: list[tuple[str, int]] = []
    for i, sign in w.letters:
        core = (
            [(f"s{t}", -1) for t in range(1, i)]
            + [(f"s{i}", 1)]
            + [(f"s{t}", 1) for t in range(i - 1, 0, -1)]
        )
        if sign < 0:
            core = [(name, -s) for name, s in reversed(core)]
        letters += core
    return tuple(letters)


def central_element(n: int) -> BraidWord:
    """T = s_1^2 (geometric alphabet), the generator of the center."""
    if n < 1:
        raise GroupError("need n >= 1")
    return BraidWord(n + 1, ((1, 1), (1, 1)))


# ---------------------------------------------------------------------------
# relators


def _relators(name: str, size: int, *, squares: bool = False) -> list:
    """The relators of builtin_presentation(name, size), plus the square of
    each generator when asked, over a group's own alphabet: s_i is (i, 1), or
    sigma_prime(i, size - 1) in the top group; a{i}_{j} is a[i,j]."""
    pres = builtin_presentation(name, size)
    pure = name.startswith("pure")  # the a{i}_{j} alphabet, spelled as pure words
    if pure:
        images = [((PureGeneratorId(i, j, size), 1),) for i, j in _pure_names(size)]
    else:
        top = name == "unordered_top"
        images = [sigma_prime(i, size - 1).letters if top else ((i, 1),) for i in range(1, size)]
    image = {}
    for g, letters in zip(pres.generators, images):
        image[g, 1], image[g, -1] = letters, inverse_word(letters)
    rels = pres.relators + tuple(((g, 1), (g, 1)) for g in pres.generators if squares)
    _check_letter_budget(sum(len(image[letter]) for rel in rels for letter in rel))
    words = [tuple(x for letter in rel for x in image[letter]) for rel in rels]
    return words if pure else [BraidWord(size, w) for w in words]


def descriptor_relators(d: GroupDescriptor) -> list[object]:
    """Defining relators over the descriptor's own alphabet, for congruence
    testing: those of the tag's builtin presentation (Artin relators, plus
    every s_i^2 for the symmetric group; Yang-Baxter relators for pure tags),
    the top tag's in the geometric alphabet; [0] for the integers."""
    return _FAMILIES[d.tag].relators(d.parameter)


def central_ext_relators(n: int) -> list[BraidWord]:
    """Defining relators of the top group on n+1 points, n >= 1, over the
    geometric alphabet: the unordered_top relators (Artin relators and
    s_i^2 = s_(i+1)^2) with each s_i spelled as sigma_prime(i, n)."""
    return _FAMILIES["central_ext_top"].relators(n + 1)


def identity_word(d: GroupDescriptor) -> object:
    return _FAMILIES[d.tag].parse("", d.parameter)


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class _Family:
    """Everything that differs between group tags; p is the parameter."""

    cli_name: str  # what `confgroups equal --group` takes
    flavor: str
    min_size: int  # smallest p; 0 when the group has no size
    too_small: str  # the error below min_size, formatted with the tag
    representative: Callable[[int], tuple[int, int, int]]  # p -> (k, i, n)
    name: Callable[[int], str]  # p -> describe()
    anchor: str  # the right-hand side of case_statement
    parse: Callable[[str, int], object]  # (text, p) -> word
    canonical: Callable[[GroupDescriptor, object], object]  # equal words, equal values
    tau: Callable[[GroupDescriptor, object], Permutation] | None
    relators: Callable[[int], list]


def _top_name(p: int) -> str:
    squares = "σ1²=σ2²" if p == 3 else f"σ1²=⋯=σ{p - 1}²"
    return f"B_{p} / ⟨{squares}⟩"


_STRANDS = "{tag} needs a strand count of at least 2"

# One row per tag, one line per group of fields: sizes, names, word problem
# (parse, canonical, tau) and relators.
_FAMILIES: dict[str, _Family] = {
    "trivial": _Family(
        "trivial", ORDERED, 0, "", lambda p: (1, 0, 1),
        lambda p: "trivial", "1 (simply connected off the loci i=1 and i=n=k-1)",
        lambda text, p: None, lambda d, w: None, None,
        lambda p: [],
    ),
    "integers": _Family(
        "integers", ORDERED, 0, "", lambda p: (3, 2, 2),
        lambda p: "ℤ", "Z (top stratum of k=n+1 ordered points)",
        lambda text, p: _parse_integer_word(text), _require_integer, None,
        lambda p: [0],
    ),
    "symmetric": _Family(
        "sym", UNORDERED, 2, _STRANDS, lambda p: (p, 2, 2),
        lambda p: f"Σ_{p}", "Sigma_k (off the loci i=1 and i=n=k-1)",
        parse_word, _s_image, _s_image,
        lambda p: _relators("artin", p, squares=True),
    ),
    "pure_braid": _Family(
        "pure", ORDERED, 2, _STRANDS, lambda p: (p, 1, 1),
        lambda p: f"PB_{p}", "PB_k (points on a line in C)",
        parse_pure_word, _garside(_require_pure_word, False), None,
        lambda p: _relators("pure_braid", p),
    ),
    "braid": _Family(
        "braid", UNORDERED, 2, _STRANDS, lambda p: (p, 1, 1),
        lambda p: f"B_{p}", "B_k (points on a line in C)",
        parse_word, _garside(_require_braid_word, False), _s_image,
        lambda p: _relators("artin", p),
    ),
    "pure_braid_mod_D": _Family(
        "pure-mod-d", ORDERED, 2, _STRANDS, lambda p: (p, 1, 2),
        lambda p: f"PB_{p} / ⟨D⟩", "PB_k/<D_k> (collinear points, n > 1)",
        parse_pure_word, _garside(_require_pure_word, True), None,
        lambda p: _relators("pure_braid_mod_D", p),
    ),
    "braid_mod_delta_sq": _Family(
        "braid-mod-delta2", UNORDERED, 2, _STRANDS, lambda p: (p, 1, 2),
        lambda p: f"B_{p} / ⟨Δ²⟩", "B_k/<Delta_k^2> (collinear points, n > 1)",
        parse_word, _garside(_require_braid_word, True), _s_image,
        lambda p: _relators("braid_mod_delta_sq", p),
    ),
    "central_ext_top": _Family(
        "top", UNORDERED, 3, "the top unordered case needs n >= 2, i.e. at least 3 points",
        lambda p: (p, p - 1, p - 1),
        _top_name, "B_(n+1)/<s_1^2=...=s_n^2>, a central Z-extension of Sigma_(n+1)",
        lambda text, p: parse_word(text, p, allow_compound=False), _top_element,
        lambda d, w: _star_image(_require_braid_word(d, w)),
        lambda p: _relators("unordered_top", p),
    ),
}
