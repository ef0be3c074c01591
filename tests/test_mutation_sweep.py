"""Seeded single-byte edits of each input kind, run through the CLI.

Every run must exit 0 or 2, never with a traceback. On exit 2 stderr is
one `error:` line alone, which starts with the path of the edited file: that
is the file at fault, whichever of a command's inputs it is.
"""

from __future__ import annotations

import random

import pytest

from spancores import ingest_contacts, maximal_span_cores, parse_contact_lines, span_cores
from spancores.cli import main
from spancores.serialize import cores_to_csv, cores_to_jsonl

# Every raw time has two contacts, so no one edit removes a timestamp or
# moves the earliest time off --origin, and the positives stay in range of
# any edited contact file.
CONTACTS = "a b 1\nb c 1\na c 1\nc d 2\na b 2\nb c 3\na c 3\na b 4\nc d 4\n"
POSITIVES = "0\n2\n"
ATTRIBUTES = "label,dept\na,P\nb,Q\nc,P\nd,Q\n"
_GRAPH = ingest_contacts(parse_contact_lines(CONTACTS.splitlines())[0])
INPUTS = {
    "contacts.txt": CONTACTS,
    "cores.csv": cores_to_csv(span_cores(_GRAPH)),
    "maximal.jsonl": cores_to_jsonl(maximal_span_cores(_GRAPH), maximal=True),
    "attrs.csv": ATTRIBUTES,
    "positives.txt": POSITIVES,
}
PURITY = ["purity", "--attributes", "attrs.csv", "--attribute", "dept"]
ANOMALY = ["anomaly", "--tr", "1", "--positives", "positives.txt"]
INGEST = ["--input", "contacts.txt", "--origin", "1"]
# (edited file, command); the command's other inputs are the valid files.
RUNS = [
    ("contacts.txt", ["decompose", *INGEST]),
    ("contacts.txt", ["decompose", "--strict", *INGEST]),
    ("contacts.txt", ["shuffle", *INGEST]),
    ("contacts.txt", [*ANOMALY, *INGEST]),
    ("cores.csv", ["stats", "--cores", "cores.csv"]),
    ("cores.csv", ["grid", "--cores", "cores.csv"]),
    ("cores.csv", [*PURITY, "--cores", "cores.csv"]),
    ("maximal.jsonl", ["stats", "--cores", "maximal.jsonl"]),
    ("maximal.jsonl", ["grid", "--cores", "maximal.jsonl"]),
    ("maximal.jsonl", [*PURITY, "--cores", "maximal.jsonl"]),
    ("attrs.csv", [*PURITY, "--cores", "cores.csv"]),
    ("positives.txt", [*ANOMALY, *INGEST]),
]
EDITS_PER_RUN = 50
_TOKEN_BYTES = b" \t\r\n,;#\"-_.0123456789abcd[]{}:"


def _edit(data: bytes, rng: random.Random) -> bytes:
    """`data` with one byte replaced, inserted or deleted."""
    kind = rng.choice(["flip", "insert", "delete"])
    # Half the new bytes are any byte, half a separator or token of the formats.
    byte = bytes([rng.choice([rng.randrange(256), rng.choice(_TOKEN_BYTES)])])
    if kind == "insert":
        at = rng.randrange(len(data) + 1)
        return data[:at] + byte + data[at:]
    at = rng.randrange(len(data))
    return data[:at] + (byte if kind == "flip" else b"") + data[at + 1:]


def test_the_valid_inputs_run_cleanly(tmp_path, capsys):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    for _, argv in RUNS:
        argv = [str(tmp_path / arg) if arg in INPUTS else arg for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("edited, argv", RUNS, ids=[
    f"{name}-{argv[0]}{'-strict' if '--strict' in argv else ''}" for name, argv in RUNS])
def test_an_edited_input_exits_0_or_2_and_an_error_names_it(tmp_path, capsys, edited, argv):
    valid, faulty = tmp_path / "valid", tmp_path / "edited"
    valid.mkdir()
    faulty.mkdir()
    for name, text in INPUTS.items():
        (valid / name).write_text(text)
    path = faulty / edited
    argv = [str(path if arg == edited else valid / arg) if arg in INPUTS else arg
            for arg in argv]
    rng = random.Random(f"{edited} {argv[0]} {argv[1]}")
    faults = []
    for case in range(EDITS_PER_RUN):
        data = _edit(INPUTS[edited].encode(), rng)
        path.write_bytes(data)
        status = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        if any("Traceback" in line for line in err) or status not in (0, 2) or (
                status == 2 and (len(err) != 1 or not err[0].startswith(f"error: {path} "))):
            faults.append((case, data, status, err))
    assert not faults, faults[:3]
