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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache


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
        out = [0] * self.size
        for x, v in enumerate(self.images, start=1):
            out[v - 1] = x
        return Permutation(self.size, tuple(out))

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
        tables = _tables(self.strands)
        lowered = []
        for f in self.factors:
            if f.size != self.strands:
                raise BraidError("factor size differs from strand count")
            low = _lower(f)
            if low == tables.identity or low == tables.half_twist:
                raise BraidError("factors may not contain the identity or the half twist")
            lowered.append(low)
        for t in range(len(lowered) - 1):
            if tables.starts(lowered[t + 1]) & ~tables.finishes(lowered[t]):
                raise BraidError("factor sequence is not left-weighted")

    def is_identity(self) -> bool:
        return self.delta_power == 0 and not self.factors

    def canonical_length(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return format_form(self)


# ---------------------------------------------------------------------------
# permutation kernel: raw 0-indexed tuples, composition left to right


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a then b)(x) = b(a(x))
    return tuple(b[x] for x in a)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, v in enumerate(p):
        out[v] = x
    return tuple(out)


def _lower(p: Permutation) -> tuple[int, ...]:
    return tuple(v - 1 for v in p.images)


def _lift(p: tuple[int, ...], size: int) -> Permutation:
    return Permutation(size, tuple(v + 1 for v in p))


class _Tables:
    """Per-strand-count caches backing the normal-form computations.

    Pair renormalisation results are memoised on demand rather than
    precomputed, so the cost is proportional to the pairs a workload actually
    touches (the full table would be (k!)^2 entries).
    """

    def __init__(self, k: int):
        self.k = k
        self.identity = tuple(range(k))
        self.half_twist = tuple(range(k - 1, -1, -1))
        self.swaps = [
            tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, k)) for i in range(k - 1)
        ]
        # Delta = A(neg_complement[i]) * s_i, so s_i^-1 = Delta^-1 * A(neg_complement[i])
        self.neg_complement = [_compose(self.half_twist, s) for s in self.swaps]
        self._starts: dict[tuple[int, ...], int] = {}
        self._finishes: dict[tuple[int, ...], int] = {}
        self._tau: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._renorm: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._words: dict[tuple[int, ...], tuple[int, ...]] = {}

    def starts(self, p: tuple[int, ...]) -> int:
        """Bitmask of i such that A(p) has a word starting with s(i+1): p[i] > p[i+1]."""
        m = self._starts.get(p)
        if m is None:
            m = 0
            for i in range(self.k - 1):
                if p[i] > p[i + 1]:
                    m |= 1 << i
            self._starts[p] = m
        return m

    def finishes(self, p: tuple[int, ...]) -> int:
        """Bitmask of i such that A(p) has a word ending with s(i+1)."""
        m = self._finishes.get(p)
        if m is None:
            m = self.starts(_invert(p))
            self._finishes[p] = m
        return m

    def tau(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """Conjugation by the half twist (an involution on permutation factors)."""
        t = self._tau.get(p)
        if t is None:
            w0 = self.half_twist
            t = self._tau[p] = _compose(_compose(w0, p), w0)
        return t

    def renorm(self, p: tuple[int, ...], q: tuple[int, ...]):
        """Left-weight the pair by moving starting letters of q into p.

        The braid product A(p)A(q) is preserved; the loop ends when
        starts(q) is contained in finishes(p), which is the left-weighted
        condition.  The end state is the unique left-weighted decomposition
        of the two-factor product, so the transfer order does not matter.
        """
        key = (p, q)
        got = self._renorm.get(key)
        if got is None:
            a, b = p, q
            while True:
                free = self.starts(b) & ~self.finishes(a)
                if not free:
                    break
                i = (free & -free).bit_length() - 1
                s = self.swaps[i]
                a = _compose(a, s)
                b = _compose(s, b)
            got = self._renorm[key] = (a, b)
        return got

    def normalise(self, factors: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
        """Left-weight a factor sequence.

        Processes factors left to right, maintaining the invariant that the
        processed prefix is left-weighted; each step renormalises the new
        boundary pair and combs backwards until nothing changes (changes
        cannot propagate further left past an unchanged pair).  Returns the
        number of leading half twists stripped off and the remaining factors
        (trailing identities dropped).
        """
        fs = list(factors)
        for t in range(len(fs) - 1):
            p, q = self.renorm(fs[t], fs[t + 1])
            if p == fs[t]:
                continue
            fs[t], fs[t + 1] = p, q
            for j in range(t - 1, -1, -1):
                p, q = self.renorm(fs[j], fs[j + 1])
                if p == fs[j]:
                    break
                fs[j], fs[j + 1] = p, q
        lead = 0
        while lead < len(fs) and fs[lead] == self.half_twist:
            lead += 1
        tail = len(fs)
        while tail > lead and fs[tail - 1] == self.identity:
            tail -= 1
        return lead, fs[lead:tail]

    def word_of(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """A reduced word for A(p) (1-indexed letters), peeling starting letters."""
        w = self._words.get(p)
        if w is None:
            out = []
            q = p
            while q != self.identity:
                m = self.starts(q)
                i = (m & -m).bit_length() - 1
                out.append(i + 1)
                q = _compose(self.swaps[i], q)
            w = self._words[p] = tuple(out)
        return w


@cache
def _tables(k: int) -> _Tables:
    return _Tables(k)


# ---------------------------------------------------------------------------
# group operations


def multiply(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenation; no reduction is performed."""
    if u.strands != v.strands:
        raise BraidError(f"strand-count mismatch: {u.strands} vs {v.strands}")
    return BraidWord(u.strands, u.letters + v.letters)


def inverse(u: BraidWord) -> BraidWord:
    return BraidWord(u.strands, tuple((i, -s) for i, s in reversed(u.letters)))


def power(u: BraidWord, e: int) -> BraidWord:
    if e < 0:
        return power(inverse(u), -e)
    return BraidWord(u.strands, u.letters * e)


def garside_normal_form(u: BraidWord) -> GarsideForm:
    """Canonical left-greedy normal form Delta^m * x_1 ... x_r.

    Each negative letter s_i^-1 is rewritten as Delta^-1 times its positive
    complement; the accumulated Delta^-1's are pushed to the front (conjugating
    the factors they pass by tau), and the resulting positive factor sequence
    is left-weighted.
    """
    k = u.strands
    if k == 1 or not u.letters:
        return GarsideForm(k, 0, ())
    tables = _tables(k)
    raw: list[tuple[int, ...]] = []
    pows: list[int] = []
    for i, s in u.letters:
        if s > 0:
            raw.append(tables.swaps[i - 1])
            pows.append(0)
        else:
            raw.append(tables.neg_complement[i - 1])
            pows.append(-1)
    dp = 0
    for t in range(len(raw) - 1, -1, -1):
        # conjugate by the Delta power accumulated strictly to the right
        if dp & 1:
            raw[t] = tables.tau(raw[t])
        dp += pows[t]
    lead, fs = tables.normalise(raw)
    return GarsideForm(k, dp + lead, tuple(_lift(f, k) for f in fs))


def equal_in_braid(u: BraidWord, v: BraidWord) -> bool:
    if u.strands != v.strands:
        raise BraidError(f"strand-count mismatch: {u.strands} vs {v.strands}")
    return garside_normal_form(multiply(u, inverse(v))).is_identity()


def permutation_image(u: BraidWord) -> Permutation:
    """The underlying permutation (signs ignored), a homomorphism onto Sigma_k."""
    tables = _tables(u.strands)
    p = tables.identity
    for i, _ in u.letters:
        p = _compose(p, tables.swaps[i - 1])
    return _lift(p, u.strands)


def exponent_sum(u: BraidWord) -> int:
    """Sum of letter signs; invariant under all braid relations."""
    return sum(s for _, s in u.letters)


def spell_form(form: GarsideForm) -> BraidWord:
    """Spell a normal form back into a braid word (staircase Deltas, then
    one reduced word per factor)."""
    k = form.strands
    if k == 1:
        return BraidWord(1)
    tables = _tables(k)
    letters: list[tuple[int, int]] = []
    if form.delta_power >= 0:
        letters += list(delta_word(k).letters) * form.delta_power
    else:
        letters += list(inverse(delta_word(k)).letters) * (-form.delta_power)
    for f in form.factors:
        letters += [(i, 1) for i in tables.word_of(_lower(f))]
    return BraidWord(k, tuple(letters))


# ---------------------------------------------------------------------------
# named elements


def delta_word(k: int) -> BraidWord:
    """The half twist Delta_k as the staircase word (s1)(s2 s1)...(s(k-1)...s1)."""
    if k < 2:
        raise BraidError("the half twist needs at least 2 strands")
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
    out = BraidWord(k)
    for gen in pure_generator_order(k):
        out = multiply(out, pure_generator(gen))
    return out


def pure_word_to_braid(strands: int, letters) -> BraidWord:
    """Translate a word in pure-braid generators ((PureGeneratorId, sign) pairs)
    into the corresponding braid word."""
    out = BraidWord(strands)
    for gen, sign in letters:
        if gen.strands != strands:
            raise BraidError("pure generator strand count mismatch")
        image = pure_generator(gen)
        out = multiply(out, image if sign > 0 else inverse(image))
    return out


# ---------------------------------------------------------------------------
# text syntax: "s1 s2^-1 a[1,3] delta^2"


def _parse_token(token: str, strands: int, allow_compound: bool) -> BraidWord:
    base, caret, exp_text = token.partition("^")
    try:
        exp = int(exp_text) if caret else 1
    except ValueError:
        raise BraidError(f"bad exponent in token {token!r}") from None
    if base.startswith("s") and base[1:].isdigit():
        return power(BraidWord(strands, ((int(base[1:]), 1),)), exp)
    if base == "delta":
        if not allow_compound:
            raise BraidError("delta is not a generator of this group")
        return power(delta_word(strands), exp)
    if base.startswith("a[") and base.endswith("]"):
        if not allow_compound:
            raise BraidError(f"pure-braid generator {base!r} is not in this group's alphabet")
        inner = base[2:-1].split(",")
        if len(inner) != 2:
            raise BraidError(f"bad pure-generator token {token!r}")
        try:
            i, j = int(inner[0]), int(inner[1])
        except ValueError:
            raise BraidError(f"bad pure-generator token {token!r}") from None
        return power(pure_generator(PureGeneratorId(i, j, strands)), exp)
    raise BraidError(f"unrecognised word token {token!r}")


def parse_word(text: str, strands: int, *, allow_compound: bool = True) -> BraidWord:
    """Parse braid-word text; a[i,j] and delta tokens expand to their words."""
    out = BraidWord(strands)
    for token in text.split():
        out = multiply(out, _parse_token(token, strands, allow_compound))
    return out


def parse_pure_word(text: str, strands: int) -> tuple[tuple[PureGeneratorId, int], ...]:
    """Parse a word over the pure-braid alphabet only: "a[1,2] a[1,3]^-1"."""
    letters: list[tuple[PureGeneratorId, int]] = []
    for token in text.split():
        base, caret, exp_text = token.partition("^")
        try:
            exp = int(exp_text) if caret else 1
        except ValueError:
            raise BraidError(f"bad exponent in token {token!r}") from None
        if not (base.startswith("a[") and base.endswith("]")):
            raise BraidError(f"token {token!r} is not a pure-braid generator")
        inner = base[2:-1].split(",")
        if len(inner) != 2:
            raise BraidError(f"bad pure-generator token {token!r}")
        try:
            i, j = int(inner[0]), int(inner[1])
        except ValueError:
            raise BraidError(f"bad pure-generator token {token!r}") from None
        gen = PureGeneratorId(i, j, strands)
        sign = 1 if exp > 0 else -1
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
