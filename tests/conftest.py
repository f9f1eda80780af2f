import random

from hypothesis import strategies as st

from pgsi import ParityGame
from pgsi.cli import random_game

from helpers import loop_game


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
    of nodes; the first has 240 colours.  Player 0's peel leaves each
    whole (`loop_game`), so the improvement loop sees all of them."""
    rng = random.Random(2718)
    for i in range(30):
        nodes = (250, 400)[i] if i < 2 else rng.randint(100, 200)
        colors = 240 if i == 0 else rng.randint(2, 12)
        yield loop_game(random_game(rng, nodes, rng.randint(2, 4), colors,
                                    0.7 if i == 0 else 0.5))


# numbers a file may hold: past CPython's default int-conversion limit,
# padded, or with non-ASCII digits, next to the valid ones
COLORS = st.one_of(st.integers(0, 6).map(str),
                   st.integers(0, 2 ** 63).map(str), st.just("9" * 4300))
NUMBERS = st.one_of(
    COLORS,
    st.sampled_from(["9" * 4301, "1" + "0" * 4300, "0" * 4301, "007"]),
    st.text(alphabet="01\uff10\uff11\u0660\u0661\u0966", min_size=1,
            max_size=3),
)
GAPS = st.text(alphabet=" \t\u00a0\u2003\u3000", min_size=1, max_size=2)
NAMES = st.text(alphabet=st.sampled_from("ab ,;\t'\u00e9\u4e00"),
                max_size=6)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028",
                            "\n \n"])
FLAWS = (None, None, None, "id", "number", "separator", "owner", "name",
         "ending")


@st.composite
def pgsolver_texts(draw):
    """Text in or near the PGSolver format: a game with node ids 0..n-1
    in any order, colors up to 2^63 and 4300 digits, odd whitespace and
    line endings, and names with quotes, commas and semicolons; at most
    one kind of flaw per text (extra duplicate, gapped or huge ids, bad
    numbers, separators, owners, names or line ends)."""
    flaw = draw(st.sampled_from(FLAWS))

    def field(clean, flawed, kind):
        return draw(st.one_of(clean, flawed) if flaw == kind else clean)

    n = draw(st.integers(0, 5))
    ids = [str(v) for v in draw(st.permutations(range(n)))]
    if flaw == "id":
        ids += draw(st.lists(NUMBERS, min_size=1, max_size=2))
    lines = []
    if draw(st.booleans()):
        lines.append("parity%s%s;" % (draw(GAPS),
                                      field(COLORS, NUMBERS, "number")))
    targets = st.integers(0, max(n - 1, 0)).map(str)
    for node in draw(st.permutations(ids)):
        succs = field(st.lists(targets, min_size=1, max_size=3),
                      st.lists(NUMBERS, max_size=3), "number")
        comma = field(st.sampled_from([",", ", ", " ,"]),
                      st.sampled_from([",,", " ", ""]), "separator")
        line = "%s%s%s%s%s%s%s%s" % (
            draw(st.sampled_from(["", " ", "\t"])), node, draw(GAPS),
            field(COLORS, NUMBERS, "number"),
            field(GAPS, st.sampled_from(["", ",", ";"]), "separator"),
            field(st.sampled_from("01"), st.sampled_from(["2", "x", ""]),
                  "owner"),
            draw(GAPS), comma.join(succs))
        name = draw(st.one_of(st.none(), NAMES))
        if name is not None:
            line += '%s"%s"' % (draw(GAPS), field(
                st.just(name), st.just(name + '"'), "name"))
        lines.append(line + field(st.sampled_from([";", " ;", ";\t"]),
                                  st.sampled_from(["", ";;", "; x"]),
                                  "ending"))
    return "".join(line + draw(NEWLINES) for line in lines)


# every text the parser fuzz tests draw
fuzz_texts = st.one_of(pgsolver_texts(), st.text(max_size=40))
