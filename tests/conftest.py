import random

from hypothesis import strategies as st

from pgsi import ParityGame
from pgsi.cli import random_game


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


def scale_games():
    """30 seeded games of 100-400 nodes whose sink regions reach hundreds
    of nodes; the first has 240 colours."""
    rng = random.Random(2718)
    for i in range(30):
        nodes = (250, 400)[i] if i < 2 else rng.randint(100, 200)
        colors = 240 if i == 0 else rng.randint(2, 12)
        yield random_game(rng, nodes, rng.randint(2, 4), colors,
                          0.7 if i == 0 else 0.5)
