from hypothesis import strategies as st

from pgsi import ParityGame


@st.composite
def parity_games(draw, max_nodes=8, max_colors=4, max_degree=3):
    """Random small games; every node keeps at least one successor."""
    n = draw(st.integers(1, max_nodes))
    d = draw(st.integers(1, max_colors))
    owner = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    color = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    succ = []
    for _ in range(n):
        k = draw(st.integers(1, min(max_degree, n)))
        succ.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                        max_size=k, unique=True))))
    return ParityGame(tuple(owner), tuple(color), tuple(succ))
