import pytest

from fibtree.fibword import U, V, letter_at, u_count, v_count, word
from fibtree.goldring import fib
from fibtree.wythoff import u, v

FIRST_WORDS = ["u", "uv", "uvu", "uvuuv", "uvuuvuvu", "uvuuvuvuuvuuv"]


def substitute(letters: str) -> str:
    return "".join("uv" if c == U else "u" for c in letters)


def test_first_words_fixture():
    for n, want in enumerate(FIRST_WORDS):
        assert word(n) == want


def test_concatenation_recursion():
    for n in range(2, 21):
        assert word(n) == word(n - 1) + word(n - 2)


def test_matches_substitution_pass():
    for n in range(1, 21):
        assert word(n) == substitute(word(n - 1))


def test_lengths_and_counts():
    for n in range(21):
        w = word(n)
        assert len(w) == fib(n + 2)
        assert w.count(U) == fib(n + 1)
        assert w.count(V) == fib(n)


def test_word_rejects_bad_levels():
    with pytest.raises(ValueError):
        word(-1)
    with pytest.raises(ValueError, match="cap"):
        word(31)


def test_letter_at_examples():
    assert letter_at(1) == U
    assert letter_at(2) == V
    assert letter_at(5) == V


def test_letter_at_matches_finite_words():
    letters = word(24)
    for i in range(1, len(letters) + 1):
        assert letter_at(i) == letters[i - 1]


def test_letter_at_deep_position():
    # smallest level holding position 10**6 is 29 (F_31 = 1346269)
    big = word(29)
    i = 10**6
    assert letter_at(i) == big[i - 1]


@pytest.mark.parametrize("i,want", [(6, 4), (1, 1), (13, 8)])
def test_u_count_examples(i, want):
    assert u_count(i) == want


def test_counts_match_prefixes():
    letters = word(18)
    seen_u = 0
    for i, c in enumerate(letters, 1):
        if c == U:
            seen_u += 1
        assert u_count(i) == seen_u
        assert v_count(i) == i - seen_u


def test_position_identities_both_letters():
    # a u at position i is the k-th u with i = u(k); a v is the l-th v with i = v(l)
    for n in range(1, 21):
        letters = word(n)
        ku = kv = 0
        for i, c in enumerate(letters, 1):
            if c == U:
                ku += 1
                assert i == u(ku)
            else:
                kv += 1
                assert i == v(kv)


@pytest.mark.parametrize("i,want", [(5, 3), (1, 1), (6, 4)])
def test_parent_position_examples(i, want):
    # the parent position of a letter is its inclusive u-count
    assert u_count(i) == want


def test_parent_position_replays_substitution():
    # regenerate each level recording which source position emitted each letter
    for n in range(2, 16):
        src = word(n - 1)
        origins = []
        for pos, c in enumerate(src, 1):
            origins.extend([pos, pos] if c == U else [pos])
        for i, want in enumerate(origins, 1):
            assert u_count(i) == want


def test_position_validation():
    for fn in (letter_at, u_count, v_count):
        with pytest.raises(ValueError):
            fn(0)
