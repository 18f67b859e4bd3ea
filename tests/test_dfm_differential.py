"""Differential suite: the DFM checker against its reference.

``tests/dfm_reference.py`` holds the checker as it stood before the
prefix-sum via counts, the pre-ordered guideline families and the
span-indexed segment queries.  The live :func:`check_layout` must return
the same violations **in the same order**: fault extraction
de-duplicates sites first-come, and fault collapsing makes the
first-seen fault the representative of its class, so a reordering alone
would rename faults downstream.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import BENCHMARKS, build_benchmark
from repro.dfm.checker import check_layout
from repro.dfm.guidelines import Guideline, all_guidelines
from repro.physical.layout import M2, M3, Layout, RouteSegment, Via
from repro.physical.pdesign import pdesign
from tests.dfm_reference import check_layout as reference_check_layout

_LAYOUTS = {}
_RULES = sorted({g.rule for g in all_guidelines()})


def _layout(name, seed, library, cells):
    key = (name, seed)
    if key not in _LAYOUTS:
        circuit = build_benchmark(name, library)
        _LAYOUTS[key] = pdesign(circuit, cells, seed=seed).layout
    return _LAYOUTS[key]


def _assert_same(layout, deck=None):
    got = check_layout(layout, deck)
    assert got == reference_check_layout(layout, deck)
    return got


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_bench_layouts_identical(library, cells, name):
    for seed in (0, 1, 2):
        assert _assert_same(_layout(name, seed, library, cells))


@pytest.mark.parametrize("rule", _RULES)
def test_each_family_alone(library, cells, rule):
    deck = [g for g in all_guidelines() if g.rule == rule]
    for name in ("sparc_tlu", "aes_core"):
        _assert_same(_layout(name, 0, library, cells), deck)


def _duplicated(deck, tag):
    return [
        Guideline(f"{g.gid}-{tag}", g.category, g.rule, dict(g.params),
                  g.description)
        for g in deck
    ]


def test_duplicate_thresholds_keep_deck_order(library, cells):
    """Every threshold appears twice under two ids: the guideline earlier
    in the deck must win, whichever copy that is."""
    deck = all_guidelines()
    layout = _layout("sparc_tlu", 0, library, cells)
    for tied in (deck + _duplicated(deck, "b"),
                 _duplicated(deck, "a") + deck):
        got = _assert_same(layout, tied)
        assert got
        first = {g.gid for g in tied[:len(deck)]}
        assert all(v.guideline in first for v in got)
    shuffled = deck + _duplicated(deck, "b")
    random.Random(3).shuffle(shuffled)
    _assert_same(layout, shuffled)


def test_empty_deck(library, cells):
    layout = _layout("sparc_tlu", 0, library, cells)
    assert _assert_same(layout, []) == []


# ----------------------------------------------------------------------
# Random layouts and decks
# ----------------------------------------------------------------------

_NETS = ("a", "b", "c", "d", "e")


@st.composite
def layouts(draw):
    """Small layouts with the checker's corner cases: repeated via
    positions, zero-length segments, segments on the die edge, and
    layouts without vias."""
    width = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 10))
    xs, ys = st.integers(0, width - 1), st.integers(0, rows - 1)
    nets = st.sampled_from(_NETS)
    vias = draw(st.lists(st.builds(
        Via, nets, xs, ys, st.sampled_from(("M1", M2)),
        st.sampled_from((M2, M3)),
        st.one_of(st.none(), st.tuples(st.sampled_from(("u1", "u2")),
                                       st.sampled_from(("", "A")))),
    ), max_size=30))
    if vias:
        vias += draw(st.lists(st.sampled_from(vias), max_size=6))
        vias = draw(st.permutations(vias))
    segments = []
    for _ in range(draw(st.integers(0, 25))):
        net = draw(nets)
        if draw(st.booleans()):
            x1, x2 = sorted((draw(xs), draw(xs)))  # x1 == x2: zero length
            y = draw(ys)
            segments.append(RouteSegment(net, M2, x1, y, x2, y))
        else:
            x = draw(xs)
            y1, y2 = sorted(draw(st.lists(ys, min_size=2, max_size=2,
                                          unique=True))) if rows > 1 \
                else (0, 0)
            segments.append(RouteSegment(net, M3, x, y1, x, y2))
    return Layout(width, rows, {}, segments, vias)


@st.composite
def decks(draw):
    """The default deck, or random thresholds per family with ties."""
    if draw(st.booleans()):
        return all_guidelines()
    deck = []
    small = st.integers(0, 12)
    for rule in _RULES:
        for _ in range(draw(st.integers(0, 3))):
            if rule in ("isolated_via", "crowded_via"):
                params = {"t": draw(small), "r": draw(st.integers(0, 4))}
            elif rule == "density_low":
                params = {"w": draw(st.integers(2, 6)),
                          "lo": draw(st.integers(0, 100))}
            elif rule == "density_high":
                params = {"w": draw(st.integers(2, 6)),
                          "hi": draw(st.integers(0, 100))}
            else:
                params = {"t": draw(small)}
            deck.append(Guideline(f"G{len(deck)}", "X", rule, params, ""))
    return draw(st.permutations(deck))


@settings(max_examples=400, deadline=None)
@given(layout=layouts(), deck=decks())
def test_random_layouts_identical(layout, deck):
    _assert_same(layout, deck)


def test_layout_without_vias_or_segments():
    for layout in (Layout(5, 3), Layout(5, 3, {}, [
            RouteSegment("a", M2, 0, 0, 4, 0),
            RouteSegment("b", M3, 4, 0, 4, 2),
            RouteSegment("c", M2, 2, 2, 2, 2)])):
        _assert_same(layout)
        _assert_same(layout, [Guideline("D", "X", "density_high",
                                        {"w": 2, "hi": 0}, "")])
