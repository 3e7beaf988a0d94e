"""Braid words and the left-greedy (Garside) normal form.

A braid on k strands is a word in the generators s1, ..., s(k-1); the normal
form Delta^m * x_1 ... x_r over permutation factors is a complete invariant,
so it decides the word problem in B_k and -- because Delta^2 is central -- in
the quotient B_k/<Delta^2> used elsewhere in this package.

Conventions, fixed once and used everywhere:

* words act left to right: the permutation image of u*v is (image of u)
  followed by (image of v);
* the generator s_i has permutation image the adjacent transposition
  (i, i+1) on {1, ..., k};
* the half twist Delta_k is emitted as the staircase word
  (s1)(s2 s1)...(s(k-1) ... s1), whose permutation image is the order
  reversal;
* word text syntax is whitespace-separated tokens "s1 s2^-1 a[1,3] delta^2"
  where a[i,j] expands to the standard pure-braid generator word and delta to
  the staircase.

The kernel is a handful of pure functions on permutation image tuples, the
very Permutation.images of the forms it returns, each standing for the
positive permutation braid A(p).  A word becomes one raw factor per letter
(s_i^-1 as Delta^-1 times a complement, the Delta's pushed to the front);
_normalise combs the factors left-weighted with _renorm, which moves letters
across one pair, and _reduced_word spells a factor back.  _renorm's bounded
LRU cache is the only memo.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache


class BraidError(ValueError):
    """Invalid construction or mismatched operands for braid operations."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., size} in one-line notation."""

    size: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        try:  # the kernel's tuple of ints: numpy ints and bools convert, floats do not
            object.__setattr__(self, "images", tuple(map(operator.index, self.images)))
        except TypeError:
            raise BraidError(f"not a permutation of 1..{self.size}: {self.images!r}") from None
        if self.size < 1 or sorted(self.images) != list(range(1, self.size + 1)):
            raise BraidError(f"not a permutation of 1..{self.size}: {self.images!r}")

    @staticmethod
    def identity(size: int) -> Permutation:
        return Permutation(size, tuple(range(1, size + 1)))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images, start=1))

    def compose(self, other: Permutation) -> Permutation:
        """self followed by other (left-to-right application)."""
        if self.size != other.size:
            raise BraidError("size mismatch in permutation composition")
        return Permutation(self.size, tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> Permutation:
        return Permutation(self.size, _invert(self.images))

    def inversions(self) -> int:
        """Coxeter length: the number of out-of-order pairs."""
        im = self.images
        return sum(
            1 for a in range(self.size) for b in range(a + 1, self.size) if im[a] > im[b]
        )

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.images)


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators of B_strands; letters are (index, sign) pairs."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError("strand count must be positive")
        if self.strands * (self.strands - 1) // 2 > _MAX_LETTERS:
            # the half twist Delta_k must fit the letter budget: k <= 1414
            raise BraidError(
                f"{self.strands} strands: the half twist would have more than "
                f"{_MAX_LETTERS} letters"
            )
        for i, s in self.letters:
            if not 1 <= i <= self.strands - 1:
                raise BraidError(f"generator index {i} out of range for {self.strands} strands")
            if s not in (1, -1):
                raise BraidError(f"letter sign must be +1 or -1, got {s}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True)
class PureGeneratorId:
    """The standard pure-braid generator a[i,j] of PB_strands, 1 <= i < j <= strands."""

    i: int
    j: int
    strands: int

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j <= self.strands:
            raise BraidError(f"need 1 <= i < j <= strands, got ({self.i}, {self.j}) in {self.strands}")


@dataclass(frozen=True)
class GarsideForm:
    """Left-greedy normal form Delta^delta_power * factors.

    Factors are permutation braids, never the identity or the half twist, and
    every adjacent pair is left-weighted.  Two braid words are equal in
    B_strands iff their forms are identical component-wise; the constructor
    enforces the shape so forms can only represent genuine normal forms.
    """

    strands: int
    delta_power: int
    factors: tuple[Permutation, ...] = ()

    def __post_init__(self) -> None:
        k = self.strands
        trivial = (tuple(range(1, k + 1)), tuple(range(k, 0, -1)))
        for f in self.factors:
            if f.size != k:
                raise BraidError("factor size differs from strand count")
            if f.images in trivial:
                raise BraidError("factors may not contain the identity or the half twist")
        for x, y in zip(self.factors, self.factors[1:]):
            # left-weighted: every letter that starts y finishes x
            if _renorm(x.images, y.images)[0] != x.images:
                raise BraidError("factor sequence is not left-weighted")

    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.factors

    def canonical_length(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return format_form(self)


# ---------------------------------------------------------------------------
# permutation kernel: image tuples of {1, ..., k}, composition left to right


def _invert(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, v in enumerate(p, start=1):
        out[v - 1] = x
    return tuple(out)


def _swap(i: int, k: int) -> tuple[int, ...]:
    """The generator s_i on k strands."""
    return tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, k + 1))


@lru_cache(maxsize=1 << 16)
def _renorm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left-weight the pair by moving starting letters of q into p.

    s(i+1) starts A(q) iff q[i] > q[i+1], and finishes A(p) iff
    p^-1[i] > p^-1[i+1].  Moving it (p <- p s(i+1), q <- s(i+1) q) swaps
    entries i, i+1 of both p^-1 and q, so the walk runs on those two lists,
    always moving the lowest letter that starts q and does not finish p.
    The braid product A(p)A(q) is preserved; the walk ends when no such
    letter is left, which is the left-weighted condition.  The end state is
    the unique left-weighted decomposition of the two-factor product.
    """
    a, b = list(_invert(p)), list(q)
    i = 0
    while i < len(b) - 1:
        if b[i] > b[i + 1] and a[i] < a[i + 1]:
            a[i], a[i + 1] = a[i + 1], a[i]
            b[i], b[i + 1] = b[i + 1], b[i]
            # only position i - 1 below i can have changed
            i = max(i - 1, 0)
        else:
            i += 1
    return _invert(a), tuple(b)


def _normalise(factors: list[tuple[int, ...]], k: int) -> tuple[int, list[tuple[int, ...]]]:
    """Left-weight a factor sequence.

    Builds the left-weighted prefix left to right without identity factors:
    identities are skipped, every other factor is appended and combed back
    while the boundary pair changes (a change cannot pass an unchanged
    pair), and identities the combing leaves at the right end, the only
    place a left-weighted sequence holds them, are popped.  Returns the
    number of leading half twists stripped off and the remaining factors.
    """
    identity, half_twist = tuple(range(1, k + 1)), tuple(range(k, 0, -1))
    fs: list[tuple[int, ...]] = []
    for f in factors:
        if f == identity:
            continue
        fs.append(f)
        for j in range(len(fs) - 2, -1, -1):
            p, q = _renorm(fs[j], fs[j + 1])
            if p == fs[j]:
                break
            fs[j], fs[j + 1] = p, q
        while fs[-1] == identity:
            fs.pop()
    lead = 0
    while lead < len(fs) and fs[lead] == half_twist:
        lead += 1
    return lead, fs[lead:]


def _reduced_word(p: tuple[int, ...]) -> list[int]:
    """A reduced word for A(p) (1-indexed letters), peeling the lowest
    starting letter s(i+1), p[i] > p[i+1], until the identity is left.

    Only the relative order of the entries is read, so p may hold any
    distinct values, such as the 0-based rank permutations of loops."""
    q, out = list(p), []
    i = 0
    while i < len(q) - 1:
        if q[i] > q[i + 1]:
            q[i], q[i + 1] = q[i + 1], q[i]
            out.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return out


# ---------------------------------------------------------------------------
# group operations


def multiply(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenation; no reduction is performed."""
    if u.strands != v.strands:
        raise BraidError(f"strand-count mismatch: {u.strands} vs {v.strands}")
    return BraidWord(u.strands, u.letters + v.letters)


def inverse(u: BraidWord) -> BraidWord:
    return BraidWord(u.strands, _inverse_letters(u.letters))


def power(u: BraidWord, e: int) -> BraidWord:
    return BraidWord(u.strands, _power_letters(u.letters, e))


# Words are expanded in full, so every expansion is checked against this many
# letters before it is allocated: "s1^1000000000000" raises BraidError instead
# of exhausting memory.  A million letters is 8 MB of references, far beyond
# the words of a few thousand letters this package is used on.
_MAX_LETTERS = 1_000_000


def _check_letter_budget(count: int) -> None:
    if count > _MAX_LETTERS:
        raise BraidError(f"word expands to {count} letters, over the limit of {_MAX_LETTERS}")


def _inverse_letters(letters):
    return tuple((i, -s) for i, s in reversed(letters))


def _power_letters(letters, e: int, before: int = 0):
    """letters repeated e times (the inverse -e times when e < 0), checked
    against the letter budget together with `before` letters already held."""
    _check_letter_budget(before + len(letters) * abs(e))
    return (letters if e >= 0 else _inverse_letters(letters)) * abs(e)


def garside_normal_form(u: BraidWord) -> GarsideForm:
    """Canonical left-greedy normal form Delta^m * x_1 ... x_r.

    Each negative letter s_i^-1 is rewritten as Delta^-1 times its positive
    complement; the accumulated Delta^-1's are pushed to the front (conjugating
    the factors they pass by tau), and the resulting positive factor sequence
    is left-weighted.
    """
    k = u.strands
    letters: list[tuple[int, int]] = []
    dp = 0
    for i, s in reversed(u.letters):
        # an odd Delta power to the right conjugates by tau, which reads s_i
        # as s_(k-i) and fixes Delta
        letters.append((k - i if dp & 1 else i, s))
        if s < 0:
            dp -= 1
    # s_i is its own factor; s_i^-1 = Delta^-1 A(c), where the complement c
    # (the half twist, then s_i) is s_i reversed and A(c) s_i = Delta.  Only
    # the factors the word uses are built.
    factor = {(i, s): _swap(i, k)[::s] for i, s in set(letters)}
    lead, fs = _normalise([factor[x] for x in reversed(letters)], k)
    return GarsideForm(k, dp + lead, tuple(Permutation(k, f) for f in fs))


def equal_in_braid(u: BraidWord, v: BraidWord) -> bool:
    if u.strands != v.strands:
        raise BraidError(f"strand-count mismatch: {u.strands} vs {v.strands}")
    return garside_normal_form(u) == garside_normal_form(v)


def permutation_image(u: BraidWord) -> Permutation:
    """The underlying permutation (signs ignored), a homomorphism onto Sigma_k."""
    # following s_i swaps entries i-1, i of the inverse image
    inv = list(range(1, u.strands + 1))
    for i, _ in u.letters:
        inv[i - 1], inv[i] = inv[i], inv[i - 1]
    return Permutation(u.strands, _invert(inv))


def exponent_sum(u: BraidWord) -> int:
    """Sum of letter signs; invariant under all braid relations."""
    return sum(s for _, s in u.letters)


def spell_form(form: GarsideForm) -> BraidWord:
    """Spell a normal form back into a braid word (staircase Deltas, then
    one reduced word per factor)."""
    k = form.strands
    if k == 1:
        return BraidWord(1)
    letters = list(_power_letters(delta_word(k).letters, form.delta_power))
    for f in form.factors:
        letters += [(i, 1) for i in _reduced_word(f.images)]
    return BraidWord(k, tuple(letters))


# ---------------------------------------------------------------------------
# named elements


def delta_word(k: int) -> BraidWord:
    """The half twist Delta_k as the staircase word (s1)(s2 s1)...(s(k-1)...s1)."""
    if k < 2:
        raise BraidError("the half twist needs at least 2 strands")
    _check_letter_budget(k * (k - 1) // 2)
    letters = [(i, 1) for top in range(1, k) for i in range(top, 0, -1)]
    return BraidWord(k, tuple(letters))


def pure_generator(gen: PureGeneratorId) -> BraidWord:
    """The image of a[i,j] in B_k: s(j-1) ... s(i+1) s_i^2 s(i+1)^-1 ... s(j-1)^-1."""
    i, j, k = gen.i, gen.j, gen.strands
    descend = [(t, 1) for t in range(j - 1, i, -1)]
    ascend = [(t, -1) for t in range(i + 1, j)]
    return BraidWord(k, tuple(descend + [(i, 1), (i, 1)] + ascend))


def pure_generator_order(k: int) -> list[PureGeneratorId]:
    """a[1,2], a[1,3], a[2,3], a[1,4], ...: the column-major order used by the
    full twist."""
    return [PureGeneratorId(i, j, k) for j in range(2, k + 1) for i in range(1, j)]


def d_word(k: int) -> BraidWord:
    """The full twist D_k = a[1,2] (a[1,3] a[2,3]) ... (a[1,k] ... a[k-1,k])."""
    if k < 2:
        raise BraidError("the full twist needs at least 2 strands")
    _check_letter_budget((k**3 - k) // 3)  # a[i,j] spells as 2(j-i) letters
    letters = [x for gen in pure_generator_order(k) for x in pure_generator(gen).letters]
    return BraidWord(k, tuple(letters))


def pure_word_to_braid(strands: int, letters) -> BraidWord:
    """Translate a word in pure-braid generators ((PureGeneratorId, sign) pairs)
    into the corresponding braid word."""
    out: list[tuple[int, int]] = []
    for gen, sign in letters:
        if gen.strands != strands:
            raise BraidError("pure generator strand count mismatch")
        image = pure_generator(gen).letters
        _check_letter_budget(len(out) + len(image))
        out += image if sign > 0 else _inverse_letters(image)
    return BraidWord(strands, tuple(out))


# ---------------------------------------------------------------------------
# text syntax: "s1 s2^-1 a[1,3] delta^2"


def _read_token(token: str, strands: int, pure_ok: bool = True):
    """Split a token into (base, exponent, generator), where generator is the
    PureGeneratorId of an a[i,j] base and None for any other base."""
    base, caret, exp_text = token.partition("^")
    try:
        exp = int(exp_text) if caret else 1
    except ValueError:
        raise BraidError(f"bad exponent in token {token!r}") from None
    if not (base.startswith("a[") and base.endswith("]")):
        return base, exp, None
    if not pure_ok:
        raise BraidError(f"pure-braid generator {base!r} is not in this group's alphabet")
    inner = base[2:-1].split(",")
    if len(inner) != 2:
        raise BraidError(f"bad pure-generator token {token!r}")
    try:
        i, j = int(inner[0]), int(inner[1])
    except ValueError:
        raise BraidError(f"bad pure-generator token {token!r}") from None
    return base, exp, PureGeneratorId(i, j, strands)


def _parse_token(token: str, strands: int, allow_compound: bool) -> tuple[tuple, int]:
    base, exp, gen = _read_token(token, strands, allow_compound)
    if gen is not None:
        return pure_generator(gen).letters, exp
    if base.startswith("s") and base[1:].isdecimal():  # the digits int() reads
        i = int(base[1:])
        if not 1 <= i <= strands - 1:
            raise BraidError(f"generator index {i} out of range for {strands} strands")
        return ((i, 1),), exp
    if base == "delta":
        if not allow_compound:
            raise BraidError("delta is not a generator of this group")
        return delta_word(strands).letters, exp
    raise BraidError(f"unrecognised word token {token!r}")


def parse_word(text: str, strands: int, *, allow_compound: bool = True) -> BraidWord:
    """Parse braid-word text; a[i,j] and delta tokens expand to their words."""
    letters: list[tuple[int, int]] = []
    for token in text.split():
        base, exp = _parse_token(token, strands, allow_compound)
        letters += _power_letters(base, exp, len(letters))
    return BraidWord(strands, tuple(letters))


def parse_pure_word(text: str, strands: int) -> tuple[tuple[PureGeneratorId, int], ...]:
    """Parse a word over the pure-braid alphabet only: "a[1,2] a[1,3]^-1"."""
    letters: list[tuple[PureGeneratorId, int]] = []
    for token in text.split():
        _, exp, gen = _read_token(token, strands)
        if gen is None:
            raise BraidError(f"token {token!r} is not a pure-braid generator")
        sign = 1 if exp > 0 else -1
        _check_letter_budget(len(letters) + abs(exp))
        letters += [(gen, sign)] * abs(exp)
    return tuple(letters)


def format_word(u: BraidWord) -> str:
    if not u.letters:
        return "(empty)"
    return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in u.letters)


def format_form(form: GarsideForm) -> str:
    head = f"Δ^{form.delta_power}"
    if not form.factors:
        return head
    return head + " | " + " ; ".join(str(f) for f in form.factors)
