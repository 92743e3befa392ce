"""Free-group words, presentations, integer group-ring elements, and right Fox derivatives."""

import itertools
import re
from typing import Iterable, List, Tuple

Letter = Tuple[int, int]

MAX_WORD_LEN = 10**6
MAX_COEF = 10**6
# generators of a surface presentation or a Fox report (genus up to 256)
MAX_GENERATORS = 512


def _check_letter(g, e):
    if g < 1:
        raise ValueError(f"generator index must be >= 1, got {g}")
    if e not in (1, -1):
        raise ValueError(f"letter exponent must be +1 or -1, got {e}")


class Word:
    """A freely reduced word; letters is a tuple of (generator index, +1 or -1)."""

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple((int(g), int(e)) for g, e in letters)
        for g, e in letters:
            _check_letter(g, e)
        for (g1, e1), (g2, e2) in zip(letters, letters[1:]):
            if g1 == g2 and e1 == -e2:
                raise ValueError("letters are not freely reduced, use reduce()")
        self.letters = letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        return word_multiply(self, other)

    def __repr__(self):
        return format_word(self)

    def max_generator(self):
        return max((g for g, _ in self.letters), default=0)


def reduce(letters: Iterable[Letter]) -> Word:
    """Freely reduce a raw letter sequence (stack cancellation of adjacent inverse pairs)."""
    stack: List[Letter] = []
    n = 0
    for g, e in letters:
        g, e = int(g), int(e)
        _check_letter(g, e)
        n += 1
        if n > MAX_WORD_LEN:
            raise ValueError(f"word length exceeds {MAX_WORD_LEN}")
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return _reduced(tuple(stack))


def _reduced(letters: Tuple[Letter, ...]) -> Word:
    """A Word of letters already known to be valid and freely reduced, unchecked."""
    w = Word.__new__(Word)
    w.letters = letters
    return w


def word_multiply(u: Word, v: Word) -> Word:
    """The reduced product uv. Both are reduced, so only the letters at the
    junction can cancel; the budget is reduce's, on the raw letter count."""
    a, b = u.letters, v.letters
    if len(a) + len(b) > MAX_WORD_LEN:
        raise ValueError(f"word length exceeds {MAX_WORD_LEN}")
    k = 0
    while k < min(len(a), len(b)) and a[-1 - k] == (b[k][0], -b[k][1]):
        k += 1
    return _reduced(a[:len(a) - k] + b[k:])


class GroupRingElement:
    """Integer combination of words; terms maps Word -> nonzero int coefficient."""

    def __init__(self, terms=None):
        data = {}
        for word, coef in (terms or {}).items():
            coef = int(coef)
            if coef == 0:
                continue
            if abs(coef) > MAX_COEF:
                raise ValueError(f"coefficient {coef} exceeds bound {MAX_COEF}")
            data[word] = coef
        self.terms = data

    @classmethod
    def one(cls):
        return cls({Word(): 1})

    @classmethod
    def from_word(cls, w):
        return cls({w: 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __add__(self, other):
        data = dict(self.terms)
        for w, c in other.terms.items():
            data[w] = data.get(w, 0) + c
        return GroupRingElement(data)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Word):
            other = GroupRingElement.from_word(other)
        data = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                uv = word_multiply(u, v)
                data[uv] = data.get(uv, 0) + cu * cv
        return GroupRingElement(data)

    def __repr__(self):
        return format_ring(self)


def fox_terms(w: Word):
    """The right-Fox suffix rule, one term per letter in letter order: yields
    (j, sign, start), meaning sign * suffix(start) is a term of dw/dx_j.

    Letter-by-letter expansion of the product rule d(uv) = (du)v + dv:
    a positive occurrence of x_j at position k contributes +suffix(k+1),
    a negative one contributes -x_j^-1 suffix(k+1) = -suffix(k). In a
    reduced word no two terms of one derivative share a suffix.
    """
    for k, (g, e) in enumerate(w.letters):
        yield (g, 1, k + 1) if e == 1 else (g, -1, k)


def _check_fox_budget(w: Word, terms):
    """Each Fox term is a suffix Word of its own, so the letters a term list
    builds grow as len(w)^2 / 2: reject more than MAX_WORD_LEN before any is built."""
    letters = sum(len(w) - start for _, _, start in terms)
    if letters > MAX_WORD_LEN:
        raise ValueError(f"Fox expansion needs {letters} letters, over the budget of {MAX_WORD_LEN}")


def fox_derivative(w: Word, j: int) -> GroupRingElement:
    """Right Fox derivative dw/dx_j, satisfying 1 - w = sum_j (1 - x_j) dw/dx_j."""
    if j < 1:
        raise ValueError(f"generator index must be >= 1, got {j}")
    terms = [term for term in fox_terms(w) if term[0] == j]
    _check_fox_budget(w, terms)
    out = {}
    for _, sign, start in terms:
        suffix = _reduced(w.letters[start:])
        out[suffix] = out.get(suffix, 0) + sign
    return GroupRingElement(out)


def verify_fox_identity(w: Word) -> bool:
    """Check 1 - w = sum_j (1 - x_j) dw/dx_j exactly over the integers, in one
    pass over fox_terms(w): each term sign * u of dw/dx_j adds sign * u and
    -sign * x_j u to the right side."""
    terms = list(fox_terms(w))
    _check_fox_budget(w, terms)
    lhs = GroupRingElement.one() - GroupRingElement.from_word(w)
    rhs = {}
    for j, sign, start in terms:
        u = _reduced(w.letters[start:])
        for v, c in ((u, sign), (word_multiply(_reduced(((j, 1),)), u), -sign)):
            rhs[v] = rhs.get(v, 0) + c
    return lhs == GroupRingElement(rhs)


class Presentation:
    """Finitely presented group: n generators and a list of relator Words."""

    def __init__(self, n: int, relators: List[Word], genus=None):
        if n < 1:
            raise ValueError(f"need at least one generator, got {n}")
        for r in relators:
            if r.max_generator() > n:
                raise ValueError(f"relator {r!r} uses a generator beyond x{n}")
        self.n = n
        self.relators = list(relators)
        self.genus = genus
        # (relator letters, plan) of cohomology._walk_plan: the plan of the
        # relators it was built from, kept under their letters since the list
        # may change
        self._plan = None

    @property
    def m(self):
        return len(self.relators)


def surface_presentation(genus: int) -> Presentation:
    """Standard one-relator surface presentation: 2*genus generators, relator [x1,x2]...[x_{2g-1},x_{2g}]."""
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")
    if 2 * genus > MAX_GENERATORS:
        raise ValueError(
            f"genus {genus} needs {2 * genus} generators, over the budget of {MAX_GENERATORS}")
    letters = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return Presentation(2 * genus, [Word(tuple(letters))], genus=genus)


_TERM_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse the textual syntax: word := term ("*" term)*; term := gen ("^" int)?; gen := x<index>."""
    stripped = text.strip()
    if not stripped:
        return Word()
    powers = []
    pos = 0
    for chunk in text.split("*"):
        term = chunk.strip()
        at = pos + chunk.index(term) if term else pos
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed term {term!r} at position {at}")
        g = int(m.group(1))
        if g < 1:
            raise ValueError(f"generator index must be >= 1 at position {at}")
        e = int(m.group(2)) if m.group(2) is not None else 1
        powers.append((g, e))
        pos += len(chunk) + 1
    # the raw letter count reduce() bounds, checked before any letter is made
    if sum(abs(e) for _, e in powers) > MAX_WORD_LEN:
        raise ValueError(f"word length exceeds {MAX_WORD_LEN}")
    return reduce((g, 1 if e >= 0 else -1) for g, e in powers for _ in range(abs(e)))


def format_word(w: Word) -> str:
    parts = []
    for (g, e), run in itertools.groupby(w.letters):
        power = e * len(list(run))
        parts.append(f"x{g}" if power == 1 else f"x{g}^{power}")
    return "*".join(parts) or "1"


def format_ring(e: GroupRingElement) -> str:
    if e.is_zero():
        return "0"
    items = sorted(e.terms.items(), key=lambda kv: kv[0].letters)
    out = []
    for w, c in items:
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        body = f"{mag}{format_word(w)}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)
