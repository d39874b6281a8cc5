"""A committed byte-identity corpus of CLI requests.

``cli_corpus.json`` holds about 600 seeded argvs over every subcommand, CLI
family, format and ``--method``, some with ``--out``, every ``REFUSALS``
argv of ``test_cli.py`` and the fixed route pins of ``_route_pins``, each
with one SHA-256 of what ``cli.main`` gives for it: exit code, stdout,
stderr and the ``--out`` file.
``test_corpus.py`` replays it in-process.

Every argv parses: usage errors and help are left to ``test_parser.py``
and ``test_cli.py``, which read them line by line.  Indices
stay small (the seeded ``area`` argvs reach index 5,380 at most, the route
pins 10,801), so the replay takes about a second.

Run from the repository root:

    PYTHONPATH=src python tests/cli_corpus.py             # re-hash the argvs
    PYTHONPATH=src python tests/cli_corpus.py --generate  # draw new argvs

A change that alters output on purpose re-hashes and lists every argv whose
digest changed, which this script prints.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_corpus.json")
SEED = 20261019
OUT = "{out}"  # stands for a file in a fresh directory, in argv and stderr

FORMATS = ("markdown", "json", "csv")
METHODS = ("oracle", "closed", "both")
PLAIN_FAMILIES = (
    "fibonacci", "lucas", "pell", "pell-lucas", "jacobsthal", "jacobsthal-lucas",
    "tribonacci", "perrin",
)


def run(argv: list[str]) -> str:
    """The SHA-256 of (exit code, stdout, stderr, --out file) for ``argv``,
    run through ``cli.main`` in this process."""
    from seqarea import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "out.txt"))
        real = [path if a == OUT else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(real)
        written = Path(path).read_text() if Path(path).exists() else None
    record = [code, stdout.getvalue(), stderr.getvalue().replace(path, OUT), written]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def _family(rng: random.Random, name: str) -> list[str]:
    if name == "generalized":
        return [name, "--s", str(rng.randint(-5, 5)), "--t", str(rng.randint(-5, 5))]
    if name == "polygonal":
        return [name, "--rank", str(rng.randint(3, 12))]
    if name == "padovan" and rng.random() < 0.5:
        triple = ",".join(str(rng.randint(-3, 3)) for _ in range(3))
        return [name, "--initial-terms", triple]
    return [name]


def _span(rng: random.Random, lo: int, hi: int, longest: int) -> str:
    a = rng.randint(lo, hi)
    b = a + rng.randrange(longest)
    return str(a) if a == b else f"{a}..{b}"


def _requests(rng: random.Random) -> list[list[str]]:
    families = [*PLAIN_FAMILIES, "generalized", "polygonal", "padovan"]
    reqs = []
    for name in families:
        for fmt in FORMATS:
            for _ in range(3):
                count = rng.choice([0, 1, 2, rng.randint(3, 40), rng.randint(40, 300)])
                reqs.append(["gen", *_family(rng, name), "--count", str(count),
                             "--format", fmt])
            for method in METHODS:
                for _ in range(2):
                    n = rng.choice([0, 1, rng.randint(2, 30), rng.randint(30, 5000)])
                    k, m = rng.randint(1, 20), rng.randint(3, 10)
                    if rng.random() < 0.15:  # past the small-index table
                        n, k, m = n % 2000, rng.randint(80, 600), 3
                    reqs.append(["area", *_family(rng, name), "--n", str(n),
                                 "--k", str(k), "--m", str(m), "--method", method,
                                 "--format", fmt])
            for _ in range(5):
                reqs.append(["verify", *_family(rng, name),
                             "--n", _span(rng, 0, 30, 4), "--k", _span(rng, 1, 12, 3),
                             "--m", _span(rng, 3, 8, 3), "--format", fmt])
    for fmt in FORMATS:
        for _ in range(12):
            argv = ["table", "polygonal", "--format", fmt]
            if rng.random() < 0.8:
                argv += ["--m", _span(rng, 3, 12, 6), "--rank", _span(rng, 3, 12, 6)]
            reqs.append(argv)
            argv = ["table", "third-order", "--format", fmt]
            if rng.random() < 0.8:
                argv += ["--k-max", str(rng.randint(1, 12))]
                argv += ["--n", str(rng.randint(0, 60))]
            if rng.random() < 0.4:
                triple = ",".join(str(rng.randint(-3, 3)) for _ in range(3))
                argv += ["--padovan-initial", triple]
            reqs.append(argv)
    for argv in rng.sample(reqs, 40):
        reqs.append([*argv, "--out", OUT])
    return reqs


def _route_pins() -> list[list[str]]:
    """Fixed argvs on both sides of the route rule of ``area``'s oracle,
    n = (2m-1)k and one past it, with spans well past the small-index table,
    and a ``table third-order`` whose cells fall on both sides of n = 5k.
    The three families with no closed form take ``--method oracle``, since
    their ``both`` is a refusal."""
    families = [["pell"], ["tribonacci"], ["perrin"], ["padovan"],
                ["polygonal", "--rank", "7"]]
    pins = []
    for family in families:
        method = "both" if family[0] in ("pell", "polygonal") else "oracle"
        for k, m in ((100, 3), (250, 4), (600, 5), (1, 300)):
            for n in ((2 * m - 1) * k, (2 * m - 1) * k + 1):
                for fmt in FORMATS:
                    pins.append(["area", *family, "--n", str(n), "--k", str(k),
                                 "--m", str(m), "--method", method, "--format", fmt])
    for fmt in FORMATS:
        pins.append(["table", "third-order", "--n", "3000", "--k-max", "700",
                     "--format", fmt])
    return pins


def generate() -> list[list[str]]:
    """The seeded argvs, then every refusal of ``test_cli.REFUSALS``, then
    the route pins."""
    sys.path.insert(0, str(Path(__file__).parent))
    from test_cli import REFUSALS

    argvs = _requests(random.Random(SEED)) + [list(argv) for argv, _ in REFUSALS]
    argvs += _route_pins()
    return list({json.dumps(argv): argv for argv in argvs}.values())  # once each


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--generate", action="store_true",
                        help="draw the argvs anew from the seed before hashing")
    args = parser.parse_args()
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    argvs = generate() if args.generate else [argv for argv, _ in old]
    entries = [[argv, run(argv)] for argv in argvs]
    before = {json.dumps(argv): digest for argv, digest in old}
    for argv, digest in entries:
        if before.get(json.dumps(argv), digest) != digest:
            print("changed:", " ".join(argv))
    CORPUS.write_text(
        "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"
    )
    print(f"{len(entries)} argvs hashed into {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
