from gl2aut.closure import closure


def test_orbit_of_one_seed():
    # the powers of 3 mod 7 are all six units
    assert sorted(closure([1], lambda x: [3 * x % 7])) == [1, 2, 3, 4, 5, 6]


def test_states_with_one_key_count_once():
    # pairs (n, tag) keyed by n: the first pair found for each n is kept
    got = closure([(0, "seed")], lambda s: [((s[0] + 1) % 5, "step")],
                  key=lambda s: s[0])
    assert sorted(got) == [(0, "seed"), (1, "step"), (2, "step"), (3, "step"),
                           (4, "step")]


def test_several_seeds_and_duplicate_seeds():
    # x -> 2x mod 12 from 1 reaches {1, 2, 4, 8}; from 3 reaches {3, 6, 0}
    got = closure([1, 3, 1], lambda x: [2 * x % 12])
    assert sorted(got) == [0, 1, 2, 3, 4, 6, 8]
    assert closure([], lambda x: [x + 1]) == []
