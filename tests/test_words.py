import pytest
from hypothesis import given, settings, strategies as st

from surfrep import words
from surfrep.words import (
    GroupRingElement,
    Word,
    fox_derivative,
    parse_word,
    surface_presentation,
    verify_fox_identity,
    word_multiply,
)


def w(*letters):
    return words.reduce(letters)


def inverse(u):
    """The inverse word: letters reversed, exponents negated."""
    return w(*((g, -e) for g, e in reversed(u.letters)))


raw_letters = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from([1, -1])),
    max_size=20,
)
random_words = raw_letters.map(lambda ls: words.reduce(ls))


# reduction

def test_reduce_cancels_adjacent_inverse_pair():
    assert w((1, 1), (1, -1)) == Word()
    assert w((1, -1), (1, 1)) == Word()


def test_reduce_inner_cancellation():
    # x y y^-1 x -> x^2
    assert w((1, 1), (2, 1), (2, -1), (1, 1)) == Word(((1, 1), (1, 1)))


def test_reduce_leaves_reduced_word_unchanged():
    letters = ((1, 1), (2, 1), (1, -1))
    assert words.reduce(letters).letters == letters


def test_reduce_rejects_bad_generator_index():
    with pytest.raises(ValueError):
        words.reduce([(0, 1)])
    with pytest.raises(ValueError):
        words.reduce([(1, 2)])


def test_word_rejects_unreduced_letters():
    with pytest.raises(ValueError, match="not freely reduced"):
        Word(((1, 1), (2, 1), (2, -1)))


def test_reduce_rejects_more_than_max_word_len_letters(monkeypatch):
    # the raw letters are counted, before cancellation shortens them
    monkeypatch.setattr(words, "MAX_WORD_LEN", 10)
    assert words.reduce([(1, 1), (1, -1)] * 5) == Word()
    with pytest.raises(ValueError, match="exceeds 10"):
        words.reduce([(1, 1), (1, -1)] * 5 + [(2, 1)])


def test_word_multiply_checks_reduces_budget_even_where_letters_cancel(monkeypatch):
    # only the junction cancels, but the raw letter count is what is bounded
    monkeypatch.setattr(words, "MAX_WORD_LEN", 6)
    u, v = w((1, 1), (2, 1), (3, 1)), w((3, -1), (2, -1), (1, -1))
    assert word_multiply(u, v) == Word()
    with pytest.raises(ValueError, match="exceeds 6"):
        word_multiply(u, v * w((4, 1)))
    with pytest.raises(ValueError, match="exceeds 6"):
        word_multiply(u * w((4, 1)), v)


@given(raw_letters)
def test_reduce_idempotent(ls):
    once = words.reduce(ls)
    assert words.reduce(once.letters) == once


# group operations

def test_multiply_word_by_inverse_is_identity():
    x = w((1, 1))
    assert word_multiply(x, w((1, -1))) == Word()


@given(random_words, random_words)
def test_multiply_matches_reduce_of_concatenation(u, v):
    assert word_multiply(u, v) == words.reduce(u.letters + v.letters)


@given(random_words)
def test_word_times_inverse_is_identity(u):
    assert word_multiply(u, inverse(u)) == Word()


@given(random_words, random_words)
def test_invert_antihomomorphism(u, v):
    assert inverse(word_multiply(u, v)) == word_multiply(inverse(v), inverse(u))


# Fox derivatives: the commutator values below were derived by hand from the
# defining identity 1 - w = sum_j (1 - x_j) dw/dx_j before implementation.

def commutator_word():
    return w((1, 1), (2, 1), (1, -1), (2, -1))


def test_fox_derivative_commutator_x():
    # d(x y x^-1 y^-1)/dx = y x^-1 y^-1 - x^-1 y^-1
    expected = GroupRingElement({
        w((2, 1), (1, -1), (2, -1)): 1,
        w((1, -1), (2, -1)): -1,
    })
    assert fox_derivative(commutator_word(), 1) == expected


def test_fox_derivative_commutator_y():
    # d(x y x^-1 y^-1)/dy = x^-1 y^-1 - y^-1
    expected = GroupRingElement({
        w((1, -1), (2, -1)): 1,
        w((2, -1)): -1,
    })
    assert fox_derivative(commutator_word(), 2) == expected


def test_fox_derivative_of_identity_is_zero():
    assert fox_derivative(Word(), 1).is_zero()


def test_fox_derivative_single_letters():
    x = w((1, 1))
    assert fox_derivative(x, 1) == GroupRingElement({Word(): 1})
    assert fox_derivative(x, 2).is_zero()
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(w((1, -1)), 1) == GroupRingElement({w((1, -1)): -1})


@given(random_words, st.integers(min_value=1, max_value=4))
def test_fox_derivative_terms_are_validated_words(u, j):
    # the suffix terms skip Word's checks: they equal, and hash as, checked Words
    expected = {}
    for g, sign, start in words.fox_terms(u):
        if g == j:
            suffix = Word(u.letters[start:])
            expected[suffix] = expected.get(suffix, 0) + sign
    got = fox_derivative(u, j)
    assert got == GroupRingElement(expected)
    assert sorted(map(hash, got.terms)) == sorted(map(hash, GroupRingElement(expected).terms))


def test_fox_derivative_rejects_bad_index():
    with pytest.raises(ValueError):
        fox_derivative(Word(), 0)


def test_fox_expansion_checks_its_budget_before_building(monkeypatch):
    # every term of x1^L is a suffix word of its own, L (L - 1) / 2 letters in
    # all: over MAX_WORD_LEN the expansion is refused before any is built
    monkeypatch.setattr(words, "MAX_WORD_LEN", 10)
    assert verify_fox_identity(w(*[(1, 1)] * 5))  # 4 + 3 + 2 + 1 letters
    word = w(*[(1, 1)] * 6)  # 15 letters

    def built(*args):
        raise AssertionError("built a word past the Fox expansion budget")

    monkeypatch.setattr(words, "Word", built)
    with pytest.raises(ValueError, match="needs 15 letters, over the budget of 10"):
        fox_derivative(word, 1)
    with pytest.raises(ValueError, match="needs 15 letters, over the budget of 10"):
        verify_fox_identity(word)


def test_fox_identity_on_identity_word():
    assert verify_fox_identity(Word())


def test_fox_identity_on_commutator():
    assert verify_fox_identity(commutator_word())


@settings(max_examples=300)
@given(random_words)
def test_fox_identity_on_random_words(u):
    assert verify_fox_identity(u)


def test_fox_identity_fails_where_a_derivative_drops_a_term(monkeypatch):
    # the check reads every derivative's terms from fox_terms: one lost term of
    # dw/dx_2 fails it
    full = words.fox_terms

    def dropped(word):
        terms = list(full(word))
        terms.remove(next(term for term in terms if term[0] == 2))
        return iter(terms)

    assert verify_fox_identity(commutator_word())
    monkeypatch.setattr(words, "fox_terms", dropped)
    assert not verify_fox_identity(commutator_word())


@given(random_words, random_words, st.integers(min_value=1, max_value=4))
def test_fox_product_rule(u, v, j):
    lhs = fox_derivative(word_multiply(u, v), j)
    rhs = fox_derivative(u, j) * v + fox_derivative(v, j)
    assert lhs == rhs


def test_augmentation_of_relator_derivatives_vanishes():
    for genus in (1, 2, 3):
        pres = surface_presentation(genus)
        r = pres.relators[0]
        total = sum(sum(fox_derivative(r, j).terms.values()) for j in range(1, pres.n + 1))
        assert total == 0


# group-ring arithmetic

def test_ring_addition_cancels():
    e = GroupRingElement({Word(): 1})
    assert (e - e).is_zero()


def test_ring_multiplication():
    one_minus_x = GroupRingElement({Word(): 1, w((1, 1)): -1})
    x = GroupRingElement({w((1, 1)): 1})
    prod = one_minus_x * x
    assert prod == GroupRingElement({w((1, 1)): 1, w((1, 1), (1, 1)): -1})


def test_ring_coefficient_bound():
    with pytest.raises(ValueError):
        GroupRingElement({Word(): 10**6 + 1})


# presentations

def test_surface_presentation_genus_one():
    pres = surface_presentation(1)
    assert pres.n == 2
    assert pres.genus == 1
    assert pres.relators == [commutator_word()]


def test_surface_presentation_genus_two():
    pres = surface_presentation(2)
    assert pres.n == 4
    assert len(pres.relators) == 1
    r = pres.relators[0]
    assert len(r.letters) == 8
    assert words.reduce(r.letters) == r


def test_surface_presentation_rejects_genus_zero():
    with pytest.raises(ValueError):
        surface_presentation(0)


def test_surface_presentation_generator_budget():
    for genus in (1, 16, words.MAX_GENERATORS // 2):
        assert surface_presentation(genus).n == 2 * genus
    with pytest.raises(ValueError, match="budget"):
        surface_presentation(words.MAX_GENERATORS // 2 + 1)


def test_presentation_rejects_relator_with_bad_generator():
    with pytest.raises(ValueError):
        words.Presentation(2, [w((3, 1))])


def test_presentation_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        words.Presentation(0, [])


# text syntax

def test_parse_commutator():
    assert parse_word("x1*x2*x1^-1*x2^-1") == commutator_word()


def test_parse_powers():
    assert parse_word("x1^3") == w((1, 1), (1, 1), (1, 1))
    assert parse_word("x2^-2") == w((2, -1), (2, -1))
    assert parse_word("x1^0") == Word()


def test_parse_empty_is_identity():
    assert parse_word("") == Word()
    assert parse_word("  ") == Word()


def test_parse_roundtrip_through_format():
    for text in ("x1*x2*x1^-1*x2^-1", "x1^2*x3^-1", "x4"):
        assert parse_word(words.format_word(parse_word(text))) == parse_word(text)


@pytest.mark.parametrize("text", ["x1^11", "x1^100000", "x1^4*x2^-4*x1^3"])
def test_parse_word_checks_length_before_expanding(monkeypatch, text):
    # one term over the budget, or terms that add up past it, are rejected
    # before any letter reaches reduce()
    monkeypatch.setattr(words, "MAX_WORD_LEN", 10)
    assert len(parse_word("x1^6*x2^-4")) == 10

    def expanded(letters):
        raise AssertionError("letters were expanded past the length budget")

    monkeypatch.setattr(words, "reduce", expanded)
    with pytest.raises(ValueError, match="exceeds 10"):
        parse_word(text)


def test_parse_errors_carry_position():
    for bad in ("x0", "y1", "x1**x2", "x1^", "x1*", "*x1", "x", "x1^2^3"):
        with pytest.raises(ValueError) as err:
            parse_word(bad)
        assert "position" in str(err.value)


def test_format_word():
    assert words.format_word(Word()) == "1"
    assert words.format_word(commutator_word()) == "x1*x2*x1^-1*x2^-1"
    assert words.format_word(w((1, 1), (1, 1))) == "x1^2"


def test_format_ring():
    one_minus_x = GroupRingElement({Word(): 1, w((1, 1)): -1})
    assert words.format_ring(one_minus_x) == "1 - x1"
    assert words.format_ring(GroupRingElement({})) == "0"
