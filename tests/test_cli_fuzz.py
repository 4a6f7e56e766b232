"""A seeded mutation fuzz of every CLI verb, run in process on small inputs.

Each case generates an instance with ``gen`` (n <= 6), mutates its lines and
runs one verb on it.  Whatever the input, a verb must end with an exit code
of 0-3 and no escaping exception.  Under --json it prints one object, and a
recognizer that says "no" (exit 1) names its witness there; under -o it
prints nothing.  Half the cases set the header's record count to
the mutated records, so that they reach the verb; the universe size stays
as ``gen`` wrote it or shorter, since no guard bounds it yet.
"""

import json
import random

from hornkeys import cli

# (verb arguments before the input, gen kind); "{out}" is a path in the
# test's temporary directory.
VERBS = [
    (["keys"], "horn"),
    (["keys", "--limit", "3", "--stats"], "horn"),
    (["keys", "--json"], "horn"),
    (["key-min", "--set", "1,2,3,4,5,6"], "horn"),
    (["horn2tss", "-o", "{out}"], "horn"),
    (["unique-hg", "--json"], "sperner"),
    (["unique-graph", "--json"], "graph"),
    (["unique-graph", "--json"], "bipartite"),
    (["dual"], "sperner"),
    (["dual", "--json"], "sperner"),
    (["dual", "-o", "{out}"], "sperner"),
    (["phi-b"], "sperner"),
    (["sat2graph"], "cnf"),
    (["tss2horn"], "tss"),
    (["tss-enum", "--stats"], "tss"),
    (["tss-activate", "--seed-set", "1,2"], "tss"),
    (["tss-activate", "--seed-set", "1,2", "--json"], "tss"),
    (["tss-min"], "tss"),
    (["oracle", "minimal-keys"], "horn"),
    (["oracle", "minimal-keys", "-o", "{out}"], "horn"),
    (["oracle", "closure", "--set", "1"], "horn"),
    (["oracle", "transversals"], "sperner"),
    (["oracle", "unique-key"], "sperner"),
    (["oracle", "cuts"], "graph"),
    (["oracle", "mis"], "graph"),
    (["oracle", "sat"], "cnf"),
    (["oracle", "sat", "--json"], "cnf"),
    (["oracle", "min-tss"], "tss"),
    (["oracle", "minimal-tss"], "tss"),
]

TOKENS = ["-1", "->", "1.5", "１", "99999999999999999999", str(2**64)]


def _mutate(rng, lines):
    """Duplicate, delete or truncate lines, or insert a token into a record
    line (any line after the first), up to twice."""
    lines = list(lines)
    for _ in range(rng.randint(0, 2)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.randrange(4)
        if kind == 0:
            lines.insert(i, lines[i])
        elif kind == 1:
            del lines[i]
        elif kind == 2:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        elif i:
            words = lines[i].split()
            words.insert(rng.randint(0, len(words)), rng.choice(TOKENS))
            lines[i] = " ".join(words)
    return lines


def _recount(lines):
    """The lines with the header's record count set to the records there
    are, so that a mutated record reaches the verb rather than the count
    check: ``e`` lines for ``tss``, every non-blank line for the others."""
    words = lines[0].split() if lines else []
    if len(words) != 3 or not words[2].isdigit():
        return lines
    records = [line for line in lines[1:] if line.strip()]
    if words[0] == "tss":
        records = [line for line in records if line.startswith("e")]
    return [f"{words[0]} {words[1]} {len(records)}", *lines[1:]]


def test_every_verb_survives_mutated_input(capsys, tmp_path):
    rng = random.Random(0xF022)
    path = tmp_path / "input"
    out = str(tmp_path / "out.tss")
    codes = set()
    for case in range(690):
        verb, kind = VERBS[case % len(VERBS)]
        gen = ["gen", kind, "--seed", str(rng.randrange(10**6)), "--n", str(rng.randint(1, 6))]
        assert cli.main(gen) == 0
        text = capsys.readouterr().out
        lines = _mutate(rng, text.splitlines())
        if rng.random() < 0.5:
            lines = _recount(lines)
        path.write_text("\n".join(lines) + "\n")
        argv = [a.replace("{out}", out) for a in verb] + [str(path)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        context = (argv, path.read_text(), captured.err)
        assert code in (0, 1, 2, 3), context
        if "-o" in verb:
            assert captured.out == "", context
        elif "--json" in verb and code < 2:
            payload = json.loads(captured.out)  # the one object, and nothing after it
            if code == 1 and verb[0] in ("unique-hg", "unique-graph"):
                assert payload["witness"] is not None, context
        codes.add(code)
    assert {0, 1, 2} <= codes
