"""Golden stdout bytes of CLI ``certify`` and ``solve`` on larger finite spaces,
and of ``scripts/worked_instance.py``.

The fuzz-report pins in ``test_acceptance.py`` only reach n <= 8.  These pin
the full certification scan and the Picard orbit at n = 64 and n = 256, where
the inner loops run long enough for a change in pair order, in the values
read, or in the orbit's stopping rule to show up in the printed JSON.  The
worked-instance script prints every artifact of the README's two worked
instances, the lemmas' results among them.
"""

import hashlib
import json
import runpy
from pathlib import Path
from random import Random

import pytest

from gphi.cli import run_cli

IDENTITY_HALF = ({"family": "identity"}, {"family": "linear", "c": 0.5})


def dyadic_chain(n: int, seed: int) -> tuple[dict, int]:
    """d(i, j) = |2^-i - 2^-j| under the halving shift, randomly relabelled.

    Returns the instance and the relabelled start of the chain, whose orbit
    walks all n points before it reaches the fixed point.
    """
    rng = Random(seed)
    x = [2.0 ** -i for i in range(n)]
    label = list(range(n))
    rng.shuffle(label)
    dist = [[0.0] * n for _ in range(n)]
    mapping = [0] * n
    for i in range(n):
        for j in range(n):
            dist[label[i]][label[j]] = abs(x[i] - x[j])
        mapping[label[i]] = label[min(i + 1, n - 1)]
    G, phi = IDENTITY_HALF
    doc = {"space": {"dist": dist}, "operator": {"map": mapping}, "G": G, "phi": phi}
    return doc, label[0]


def random_finite(n: int, seed: int) -> tuple[dict, int]:
    """Entries uniform in (0, 1], a map pulled toward a random anchor."""
    rng = Random(seed)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = 1.0 - rng.random()
    base = [rng.randrange(n) for _ in range(n)]
    anchor = rng.randrange(n)
    mapping = [anchor if rng.random() < 0.7 else base[i] for i in range(n)]
    G, phi = IDENTITY_HALF
    doc = {"space": {"dist": dist}, "operator": {"map": mapping}, "G": G, "phi": phi}
    return doc, rng.randrange(n)


INSTANCES = {
    "chain256": lambda: dyadic_chain(256, seed=0),
    "random64": lambda: random_finite(64, seed=26),
}

# SHA-256 of the stdout of each call, with its exit code.
GOLDEN = {
    ("chain256", "certify"): (0,
        "8998c94df8e156e0484b39aa3f597348c5f871915afd8dd8db0feb5d16fb071e"),
    ("chain256", "solve"): (0,
        "f1c4d1b7253d39e627816a16aad4e8f55c858e364da8704dbfd32cfa60b623b5"),
    ("random64", "certify"): (2,
        "1b6ff772a237624a050d8e74e5e6ebbeffde911fc757850b97a5a432dc5e3f9c"),
    ("random64", "solve"): (0,
        "d8fe3b6847aef9e55cbb1c57e06fecaf46438f32e7a743450baa71127a0c072e"),
}


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_cli_stdout_bytes(name, command, tmp_path, capsys):
    doc, x0 = INSTANCES[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    if command == "certify":
        argv = ["certify", str(path)]
    else:
        argv = ["--tol", "0", "solve", str(path), "--x0", str(x0)]
    code = run_cli(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[(name, command)]


WORKED_INSTANCE = Path(__file__).resolve().parent.parent / "scripts" / "worked_instance.py"
WORKED_INSTANCE_SHA256 = "e777d5daa9321fc8366109652aacf8c36e69c6a8efc2e7e26de192496b8a8989"


def test_worked_instance_stdout_bytes(capsys):
    runpy.run_path(str(WORKED_INSTANCE), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WORKED_INSTANCE_SHA256
