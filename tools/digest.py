"""One sha256 over the solver's results on the benchmark instances.

For every instance that `benchmark/games.py` builds for the given seed,
in the order random-10k, many-colours, long-walk, tiny-batch, the game is
solved twice, each result certified by `replay_verify`: by the policy the
benchmark gives it (SingleRandom with the instance's policy seed, else
AllSwitches), then by DeterministicAll.  The digest takes, per result,
the line ``json.dumps(result.to_json(), sort_keys=True)`` and then one
line ``"%d %s" % (node, profile)`` per valuation entry in node order;
after both results, per parity p in 0 and 1, one line
``json.dumps(sorted(find_dominated_cycle_nodes(range(n), successors,
color, p)))`` over the whole game.  The last two lines cover the
analysis that every correct solve only ever asks for "no such cycle",
so that one answering "none" to every input changes the digest too.
Two trees that solve alike print the same digest.  Run from anywhere:

    python3 tools/digest.py [SEED]      # SEED defaults to 1

prints the number of instances and the hex digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import games  # noqa: E402
import pgsi  # noqa: E402
from pgsi.arena import find_dominated_cycle_nodes  # noqa: E402

ORDER = ("random-10k", "many-colours", "long-walk", "tiny-batch")


def digest(seed: int) -> tuple[int, str]:
    """The number of instances and the hex digest of their results."""
    sha = hashlib.sha256()
    count = 0
    for name in ORDER:
        for inst in games.WORKLOADS[name].build(seed):
            game = pgsi.parse_pgsolver(inst.text)
            policy = (pgsi.AllSwitches() if inst.policy_seed is None
                      else pgsi.SingleRandom(inst.policy_seed))
            lines = []
            for pol in (policy, pgsi.DeterministicAll()):
                result = pgsi.solve(game, policy=pol)
                pgsi.replay_verify(game, result)
                lines.append(json.dumps(result.to_json(), sort_keys=True))
                lines += ["%d %s" % (v, result.valuation[v])
                          for v in sorted(result.valuation)]
            lines += [json.dumps(sorted(find_dominated_cycle_nodes(
                range(game.n), game.successors, game.color, p)))
                for p in (0, 1)]
            sha.update(("\n".join(lines) + "\n").encode())
            count += 1
    return count, sha.hexdigest()


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 1
    count, hexdigest = digest(seed)
    print("%d instances, sha256 %s" % (count, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
