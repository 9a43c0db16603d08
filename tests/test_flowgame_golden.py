"""Byte-for-byte pins of the game search's output.

Every value below was recorded from the search before its kill and
rebuild moves were generated lazily.  A change to the searcher that
keeps certified values but picks another principal line, another
searched horizon or another capped flag fails here.
"""

import pytest

from storagecodes.flowgame import CapExceededError, make_game, minimax, verify_theorem

# verify_theorem(case, n, r, alpha, beta, 2n): the game workload's 14 cases
VERIFY_RECORDS = {
    ("r2", 3, 2, 1, 1): "case=r2 n=3 r=2 alpha=1 beta=1 horizon=1 value=2 formula=2 holds=1 tight=1 line=kill:2 rebuild:0,1",
    ("r2", 3, 2, 2, 1): "case=r2 n=3 r=2 alpha=2 beta=1 horizon=2 value=3 formula=3 holds=1 tight=1 line=kill:2 rebuild:0,1 kill:1 rebuild:0,3",
    ("r2", 4, 2, 1, 1): "case=r2 n=4 r=2 alpha=1 beta=1 horizon=2 value=2 formula=2 holds=1 tight=1 line=kill:3 rebuild:0,1 kill:2 rebuild:0,1",
    ("r2", 4, 2, 2, 1): "case=r2 n=4 r=2 alpha=2 beta=1 horizon=2 value=4 formula=4 holds=1 tight=1 line=kill:3 rebuild:0,1 kill:2 rebuild:0,1",
    ("r2", 5, 2, 1, 1): "case=r2 n=5 r=2 alpha=1 beta=1 horizon=2 value=3 formula=3 holds=1 tight=1 line=kill:4 rebuild:0,1 kill:3 rebuild:0,1",
    ("r2", 5, 2, 2, 1): "case=r2 n=5 r=2 alpha=2 beta=1 horizon=3 value=5 formula=5 holds=1 tight=1 line=kill:4 rebuild:0,1 kill:3 rebuild:0,2 kill:2 rebuild:0,1",
    ("r2", 6, 2, 1, 1): "case=r2 n=6 r=2 alpha=1 beta=1 horizon=2 value=4 formula=4 holds=1 tight=1 line=kill:5 rebuild:0,1 kill:4 rebuild:0,1",
    ("r2", 6, 2, 2, 1): "case=r2 n=6 r=2 alpha=2 beta=1 horizon=4 value=6 formula=6 holds=1 tight=1 line=kill:5 rebuild:0,1 kill:4 rebuild:0,2 kill:3 rebuild:1,2 kill:8 rebuild:0,1",
    ("r2", 7, 2, 1, 1): "case=r2 n=7 r=2 alpha=1 beta=1 horizon=3 value=4 formula=4 holds=1 tight=1 line=kill:6 rebuild:0,1 kill:5 rebuild:0,1 kill:4 rebuild:0,1",
    ("r2", 7, 2, 2, 1): "case=r2 n=7 r=2 alpha=2 beta=1 horizon=4 value=7 formula=7 holds=1 tight=1 line=kill:6 rebuild:0,1 kill:5 rebuild:0,1 kill:4 rebuild:2,3 kill:3 rebuild:0,1",
    ("alpha_eq_beta", 3, 2, 1, 1): "case=alpha_eq_beta n=3 r=2 alpha=1 beta=1 horizon=1 value=2 formula=2 holds=1 tight=1 line=kill:2 rebuild:0,1",
    ("alpha_eq_beta", 4, 3, 1, 1): "case=alpha_eq_beta n=4 r=3 alpha=1 beta=1 horizon=1 value=3 formula=3 holds=1 tight=1 line=kill:3 rebuild:0,1,2",
    ("alpha_eq_r_beta", 3, 2, 2, 1): "case=alpha_eq_r_beta n=3 r=2 alpha=2 beta=1 horizon=2 value=3 formula=3 holds=1 tight=1 line=kill:2 rebuild:0,1 kill:1 rebuild:0,3",
    ("alpha_eq_r_beta", 4, 3, 3, 1): "case=alpha_eq_r_beta n=4 r=3 alpha=3 beta=1 horizon=3 value=6 formula=6 holds=1 tight=1 line=kill:3 rebuild:0,1,2 kill:2 rebuild:0,1,4 kill:1 rebuild:0,4,5",
}


def line(*moves):
    """A principal line from alternating kill victims and helper tuples."""
    return tuple(
        ("kill", (m,)) if i % 2 == 0 else ("rebuild", m) for i, m in enumerate(moves)
    )


# (n, r, alpha, beta), horizon -> (value, horizon, principal_line); exact search
MINIMAX_LINES = {
    ((4, 3, 3, 1), 8): (6, 8, line(
        3, (0, 1, 2), 4, (0, 1, 2), 4, (0, 1, 2), 4, (0, 1, 2),
        4, (0, 1, 2), 4, (0, 1, 2), 2, (0, 1, 4), 1, (0, 4, 5),
    )),
    ((5, 2, 2, 1), 7): (5, 7, line(
        4, (0, 1), 5, (0, 1), 5, (0, 1), 5, (0, 1),
        5, (0, 1), 3, (0, 2), 2, (0, 1),
    )),
}

# (n, r, alpha, beta), horizon, memo_cap -> (value, horizon, capped, principal_line)
CAPPED_MINIMAX = {
    ((5, 2, 2, 1), 7, 5): (8, 1, True, line(4, (0, 1))),
    ((5, 2, 2, 1), 7, 50): (5, 3, True, line(4, (0, 1), 3, (0, 2), 2, (0, 1))),
    ((5, 2, 2, 1), 7, 500): (5, 5, True, line(
        4, (0, 1), 5, (0, 1), 5, (0, 1), 3, (0, 2), 2, (0, 1),
    )),
    ((4, 3, 3, 1), 8, 5): (9, 1, True, line(3, (0, 1, 2))),
    ((4, 3, 3, 1), 8, 50): (6, 4, True, line(3, (0, 1, 2), 4, (0, 1, 2), 2, (0, 1, 4), 1, (0, 4, 5))),
    ((4, 3, 3, 1), 8, 500): (6, 7, True, line(
        3, (0, 1, 2), 4, (0, 1, 2), 4, (0, 1, 2), 4, (0, 1, 2),
        4, (0, 1, 2), 2, (0, 1, 4), 1, (0, 4, 5),
    )),
}

# (case, memo_cap) -> record with capped == False, or None when the cap is
# hit before the target depth completes
CAPPED_VERIFY = {
    (("r2", 5, 2, 2, 1), 5): None,
    (("r2", 5, 2, 2, 1), 20): None,
    (("r2", 5, 2, 2, 1), 50): VERIFY_RECORDS["r2", 5, 2, 2, 1],
    (("r2", 5, 2, 2, 1), 500): VERIFY_RECORDS["r2", 5, 2, 2, 1],
    (("r2", 7, 2, 2, 1), 100): None,
    (("r2", 7, 2, 2, 1), 200): VERIFY_RECORDS["r2", 7, 2, 2, 1],
}


@pytest.mark.parametrize("case", sorted(VERIFY_RECORDS))
def test_verify_theorem_record_is_pinned(case):
    rep = verify_theorem(*case, 2 * case[1])
    assert (rep.to_record(), rep.capped) == (VERIFY_RECORDS[case], False)


@pytest.mark.parametrize("params, horizon", sorted(MINIMAX_LINES))
def test_minimax_principal_line_is_pinned(params, horizon):
    got = minimax(make_game(*params), horizon)
    assert (got.value, got.horizon, got.principal_line) == MINIMAX_LINES[params, horizon]
    assert not got.capped


@pytest.mark.parametrize("params, horizon, cap", sorted(CAPPED_MINIMAX))
def test_capped_minimax_is_pinned(params, horizon, cap):
    got = minimax(make_game(*params), horizon, memo_cap=cap)
    assert (got.value, got.horizon, got.capped, got.principal_line) == CAPPED_MINIMAX[
        params, horizon, cap
    ]


@pytest.mark.parametrize("case, cap", sorted(CAPPED_VERIFY))
def test_capped_verify_theorem_is_pinned(case, cap):
    expected = CAPPED_VERIFY[case, cap]
    if expected is None:
        with pytest.raises(CapExceededError, match="before any horizon completed"):
            verify_theorem(*case, 2 * case[1], memo_cap=cap)
    else:
        rep = verify_theorem(*case, 2 * case[1], memo_cap=cap)
        assert (rep.to_record(), rep.capped) == (expected, False)


# verify_theorem("r2", 7, 2, 2, 1, h) below the certifying horizon 4: no
# probe meets the formula 7, so the record gives the exact value at h.
BELOW_TARGET = {
    1: (12, "kill:6 rebuild:0,1"),
    2: (10, "kill:6 rebuild:0,1 kill:5 rebuild:0,1"),
    3: (8, "kill:6 rebuild:0,1 kill:5 rebuild:0,1 kill:4 rebuild:0,1"),
}


@pytest.mark.parametrize("horizon", sorted(BELOW_TARGET))
def test_verify_theorem_below_the_certifying_horizon_is_pinned(horizon):
    value, moves = BELOW_TARGET[horizon]
    rep = verify_theorem("r2", 7, 2, 2, 1, horizon)
    assert (rep.to_record(), rep.capped) == (
        f"case=r2 n=7 r=2 alpha=2 beta=1 horizon={horizon} value={value} formula=7 "
        f"holds=0 tight=0 line={moves}",
        False,
    )
    exact = minimax(make_game(7, 2, 2, 1), horizon)
    assert (exact.value, exact.horizon, exact.principal_line) == (
        value, horizon, rep.principal_line
    )
