"""The instance generators: determinism, recipe shape, validity."""

import math
import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest

import scx.randomgen as randomgen
from scx.complexes import Partition, from_missing_faces
from scx.domination import index_sets, rep_value, total_domination
from scx.matroids import LinearMatroid, UniformMatroid
from scx.randomgen import (
    random_complex,
    random_complex_pair,
    random_linear_matroid,
    random_matroid,
    random_partition,
    random_representation,
    random_single_layer_complex,
    trial_rng,
)


def test_trial_rng_is_reproducible():
    a = trial_rng(7, 3)
    b = trial_rng(7, 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_trial_rng_streams_differ_between_trials():
    draws = {tuple(trial_rng(0, t).random() for _ in range(3)) for t in range(50)}
    assert len(draws) == 50
    assert tuple(trial_rng(0, 1).random() for _ in range(3)) != tuple(
        trial_rng(1, 0).random() for _ in range(3)
    )


def test_random_complex_recipe_bounds():
    for t in range(200):
        x = random_complex(trial_rng(11, t), n_max=7, d_max=3)
        assert 4 <= x.n <= 7
        assert x.missing_faces
        sizes = {len(mu) for mu in x.missing_faces}
        assert min(sizes) >= 2
        assert max(sizes) <= 4


def test_random_complex_reproducible():
    xs = [random_complex(trial_rng(5, 9)) for _ in range(2)]
    assert xs[0].n == xs[1].n
    assert xs[0].missing_faces == xs[1].missing_faces


def test_random_complex_fixed_n_and_unmixed():
    for t in range(40):
        x = random_complex(trial_rng(2, t), n=6, mixed=False)
        assert x.n == 6
        assert len({len(mu) for mu in x.missing_faces}) == 1


def old_filter_complex(rng, n_max, d_max):
    """The complex recipe as drawn before the lower family was looked up
    by subset: each top set tested against each lower set."""
    while True:
        nn = rng.randint(4, n_max)
        d = rng.randint(1, min(d_max, nn - 1))
        fam = [s for s in combinations(range(nn), d + 1) if rng.random() < 0.5]
        if d >= 2 and rng.random() < 0.25:
            low = rng.randint(2, d)
            extra = [s for s in combinations(range(nn), low) if rng.random() < 0.25]
            if extra:
                fam = [s for s in fam
                       if not any(set(e) <= set(s) for e in extra)] + extra
        if fam:
            return from_missing_faces(nn, sorted(fam, key=lambda s: (len(s), s)))


@pytest.mark.parametrize("n_max, d_max", [(7, 3), (9, 4)])
def test_mixed_draws_match_the_pairwise_filter(n_max, d_max):
    # the same complexes from the same draws, leaving the stream in the
    # same state
    mixed = 0
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        x = random_complex(new, n_max, d_max)
        assert x == old_filter_complex(old, n_max, d_max), seed
        assert new.getstate() == old.getstate()
        mixed += len(x.missing_dims()) > 1
    assert mixed >= 10


def test_a_large_mixed_draw_ends_in_well_under_a_second():
    # 63074 top 8-sets against 3933 lower 5-sets: the pairwise filter
    # took about a minute here
    start = time.process_time()
    x = random_complex(random.Random(0), d_max=9, n=20)
    assert time.process_time() - start < 1.0
    assert len(x.missing_masks) == 3933


def test_single_layer_always_has_dominating_set():
    for t in range(60):
        x = random_single_layer_complex(trial_rng(3, t))
        assert len({len(mu) for mu in x.missing_faces}) == 1
        assert not math.isinf(total_domination(x))


def test_single_layer_draws_as_its_own_draw_loop_did():
    # the generator's former body, inlined: the same complex from the
    # same draws, leaving the stream in the same state
    def single_layer(rng, n_max, d_max):
        while True:
            n = rng.randint(4, n_max)
            d = rng.randint(1, min(d_max, n - 1))
            fam = [s for s in combinations(range(n), d + 1) if rng.random() < 0.5]
            if not fam:
                continue
            x = from_missing_faces(n, fam)
            if not math.isinf(total_domination(x)):
                return x

    for t in range(200):
        n_max, d_max = (6, 3) if t % 2 else (5, 1)
        old, new = trial_rng(41, t), trial_rng(41, t)
        assert random_single_layer_complex(new, n_max, d_max) == single_layer(old, n_max, d_max)
        assert new.getstate() == old.getstate()


def test_random_representation_is_valid_and_positive():
    for t in range(30):
        rng = trial_rng(13, t)
        x = random_complex(rng)
        rep = random_representation(rng, x)
        v = rep_value(rep)
        assert v > 0


def test_random_representation_matches_a_fraction_per_entry_oracle():
    # the recipe drawn with one Fraction per entry from the same rng
    # calls, in the same order: the same rows, the same scale d (the lcm
    # of their denominators) and the rng left in the same state
    widths = set()
    for t in range(40):
        rng = trial_rng(17, t)
        x = random_complex(rng)
        twin = random.Random()
        twin.setstate(rng.getstate())
        rep = random_representation(rng, x)
        width = twin.randint(1, 3)
        widths.add(width)
        oracle = {}
        for sigma in index_sets(x):
            anchor = Fraction(twin.randint(2, 6), twin.randint(1, 2))
            oracle[sigma] = tuple(
                (anchor,) + tuple(Fraction(twin.randint(0, 6), twin.randint(1, 4))
                                  for _ in range(width - 1))
                for _ in range(x.n)
            )
        assert rep.scaled.keys() == oracle.keys()
        for sigma, rows in oracle.items():
            d = math.lcm(*(e.denominator for row in rows for e in row))
            assert rep.scaled[sigma] == (tuple(tuple(e * d for e in row) for row in rows), d)
        assert rng.getstate() == twin.getstate()
    assert widths == {1, 2, 3}


def test_random_partition_covers_ground_set():
    for t in range(40):
        rng = trial_rng(17, t)
        n = rng.randint(4, 9)
        m = rng.randint(1, n)
        part = random_partition(rng, n, m)
        assert isinstance(part, Partition)
        assert len(part.classes) == m
        seen = sorted(v for cls in part.classes for v in cls)
        assert seen == list(range(n))


def test_random_partition_rejects_bad_class_counts():
    rng = trial_rng(0, 0)
    for m in (0, 10):
        try:
            random_partition(rng, 5, m)
            raise AssertionError("expected ValueError")
        except ValueError:
            pass


def test_random_linear_matroid_loopless_with_rank():
    for t in range(40):
        m = random_linear_matroid(trial_rng(19, t))
        assert isinstance(m, LinearMatroid)
        assert 5 <= m.n <= 9
        assert m.full_rank >= 2
        for v in range(m.n):
            assert m.rank((v,)) == 1


def test_random_matroid_mixes_kinds():
    kinds = {type(random_matroid(trial_rng(23, t))) for t in range(60)}
    assert kinds == {LinearMatroid, UniformMatroid}


def test_unreachable_bounds_are_refused_before_any_draw():
    big = "n_max 26 and d_max 9 let one draw list C(26, 10) = 5311735 subsets, above the budget"
    cases = [
        (lambda rng: random_complex(rng, n_max=3), "n_max must be at least 4"),
        (lambda rng: random_complex(rng, d_max=0), "d_max must be at least 1"),
        (lambda rng: random_complex_pair(rng, n_max=3), "n_max must be at least 4"),
        (lambda rng: random_single_layer_complex(rng, n_max=3), "n_max must be at least 4"),
        (lambda rng: random_single_layer_complex(rng, d_max=0), "d_max must be at least 1"),
        (lambda rng: random_linear_matroid(rng, n_max=4), "n_max must be at least 5"),
        (lambda rng: random_matroid(rng, n_max=5), "n_max must be at least 6"),
        # a draw on n vertices may list C(n, c) subsets for c up to d_max + 1
        (lambda rng: random_complex(rng, n_max=26, d_max=9), re.escape(big)),
        (lambda rng: random_complex_pair(rng, n_max=26, d_max=9), re.escape(big)),
        (lambda rng: random_single_layer_complex(rng, n_max=26, d_max=9), re.escape(big)),
        (lambda rng: random_complex(rng, d_max=6, n=30),
         re.escape("n 30 and d_max 6 let one draw list C(30, 7) = 2035800 subsets")),
    ]
    for draw, message in cases:
        for seed in range(6):
            rng = trial_rng(seed, 0)
            state = rng.getstate()
            with pytest.raises(ValueError, match=message):
                draw(rng)
            assert rng.getstate() == state


def test_the_family_budget_admits_its_largest_family(monkeypatch):
    # the largest family for n_max 9 and d_max 3 is C(9, 4) = 126; with
    # d_max 6 it is C(9, 4) again, since C(9, c) falls beyond c = 4
    monkeypatch.setattr(randomgen, "MAX_STEP_CANDIDATES", 126)
    for d_max in (3, 6):
        assert 4 <= random_complex(trial_rng(5, 0), n_max=9, d_max=d_max).n <= 9
    monkeypatch.setattr(randomgen, "MAX_STEP_CANDIDATES", 125)
    with pytest.raises(ValueError, match=re.escape("C(9, 4) = 126 subsets, above the budget of 125")):
        random_complex(trial_rng(5, 0), n_max=9, d_max=3)
    # C(40, 4) = 91390 fits the real budget: --n-max 40 at the default d_max
    monkeypatch.setattr(randomgen, "MAX_STEP_CANDIDATES", 1 << 20)
    assert 4 <= random_complex(trial_rng(0, 0), n_max=40).n <= 40


def test_smallest_accepted_bounds_draw():
    for t in range(20):
        assert random_complex(trial_rng(31, t), n_max=4, d_max=1).n == 4
        assert random_matroid(trial_rng(31, t), n_max=6).n in (5, 6)
        assert random_linear_matroid(trial_rng(31, t), n_max=5).n == 5
        pair = random_complex_pair(trial_rng(31, t), n_max=4)
        assert [x.n for x in pair] == [4, 4]
