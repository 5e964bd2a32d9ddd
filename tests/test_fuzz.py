"""A property-based fuzz of the corpus and pseudo-label readers, through the CLI.

One record of a valid ``sup.jsonl``, ``unsup.jsonl``, ``eval.jsonl``,
``unsup_refs.jsonl`` or ``pseudo_labels.jsonl`` is mutated: a field is set (or
added) to a value of some JSON type (bools, huge integers, NaN, empty and
ragged lists among them) or dropped, or the file is cut or has a byte flipped
inside the record.  ``train-teacher``, ``distill`` (with ``train.steps=0``) or
``evaluate --sets eval unsup`` then runs through ``cli.main``.  The property:
the command never exits 2; it exits 0 exactly where the file still holds
valid records, as the oracles below define them; and an exit 1 prints
``error: <file>`` and leaves no run directory.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from transducer_distill import cli
from transducer_distill.cli import cmd_gen_data, cmd_pseudo_label, cmd_train_teacher

from test_cli import SMOKE_SET_ARGS, smoke_config

VOCAB, FEAT = 3, 4  # the smoke corpus's vocab_size and feat_dim

# the places a mutation sets or drops where the record has them, or adds under a parent it has
SUP_PATHS = [("utt_id",), ("frames",), ("frames", 0), ("frames", 0, 0), ("frames", -1, -1),
             ("labels",), ("labels", 0), ("extra",)]
UNSUP_PATHS = [("utt_id",), ("frames",), ("frames", 0), ("frames", 0, 0), ("frames", -1, -1),
               ("labels",), ("extra",)]
REFS_PATHS = [("utt_id",), ("labels",), ("labels", 0), ("extra",)]
PSEUDO_PATHS = [("utt_id",), ("labels",), ("labels", 0), ("score",), ("nbest",), ("nbest", 0),
                ("nbest", 0, "labels"), ("nbest", 0, "labels", 0), ("nbest", 0, "score"),
                ("nbest", -1, "score"), ("extra",), ("nbest", 0, "extra")]

SPECIAL_VALUES = [None, True, False, 0, 1, 2, -1, 2**70, -2**70, 10**400, -10**400, 0.5, -0.0,
                  1e308, float("nan"), float("inf"), -float("inf"), "", "0.5", "sup-00001",
                  [], [[]], [0.5] * FEAT, [[0.5] * FEAT], [[0.5] * FEAT, [0.5] * (FEAT - 1)],
                  [0, 1], [[0, 1]], {}, {"labels": [0], "score": -1.0}]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)
VALUES = st.sampled_from(SPECIAL_VALUES) | JSON_VALUES


def finite_number(v) -> bool:
    """A JSON number (not a bool) that a float holds as a finite value."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def label_list(v) -> bool:
    return isinstance(v, list) and all(type(k) is int and 0 <= k < VOCAB for k in v)


def valid_sup(rec) -> bool:
    frames = rec.get("frames") if isinstance(rec, dict) else None
    return (isinstance(rec, dict) and {"utt_id", "frames", "labels"} <= rec.keys()
            and isinstance(rec["utt_id"], str) and label_list(rec["labels"])
            and isinstance(frames, list) and len(frames) >= 1
            and all(isinstance(row, list) and len(row) == FEAT and all(map(finite_number, row))
                    for row in frames))


def valid_unsup(rec) -> bool:
    """A supervised record's utt_id and frames, and no labels."""
    return isinstance(rec, dict) and "labels" not in rec and valid_sup({**rec, "labels": []})


def valid_ref(rec) -> bool:
    return (isinstance(rec, dict) and {"utt_id", "labels"} <= rec.keys()
            and isinstance(rec["utt_id"], str) and label_list(rec["labels"]))


def valid_pseudo(rec) -> bool:
    """Well-typed fields, distinct N-best hypotheses, and the record's labels
    and score (compared as floats, as the reader reads them) one N-best pair."""
    nbest = rec.get("nbest") if isinstance(rec, dict) else None
    if not (isinstance(rec, dict) and {"utt_id", "labels", "score", "nbest"} <= rec.keys()
            and isinstance(rec["utt_id"], str) and label_list(rec["labels"])
            and finite_number(rec["score"]) and isinstance(nbest, list)
            and all(isinstance(e, dict) and {"labels", "score"} <= e.keys()
                    and label_list(e["labels"]) and finite_number(e["score"]) for e in nbest)):
        return False
    pairs = [(tuple(e["labels"]), float(e["score"])) for e in nbest]
    return (len({hyp for hyp, _ in pairs}) == len(pairs)
            and (tuple(rec["labels"]), float(rec["score"])) in pairs)


def records_of(raw: bytes, valid) -> list | None:
    """The records of a JSON-lines file, or None where a line is not a valid
    record or an utt_id repeats."""
    records = []
    for line in io.BytesIO(raw):  # the lines as a file opened in binary mode gives them
        try:
            rec = json.loads(line.decode("utf-8"))
        except ValueError:  # bad UTF-8 or bad JSON
            return None
        if not valid(rec):
            return None
        records.append(rec)
    ids = [rec["utt_id"] for rec in records]
    return records if len(set(ids)) == len(ids) else None


def mutate(raw: bytes, index: int, op: str, choice: int, value, mask: int, paths) -> bytes:
    """``raw`` with one record mutated: a path of ``paths`` that the record has
    set to ``value`` or dropped, a key of ``paths`` that it lacks added, or the
    file cut, or one byte flipped by ``mask``, at an offset inside the record's
    line."""
    lines = list(io.BytesIO(raw))
    index %= len(lines)
    if op in ("cut", "flip"):
        at = sum(map(len, lines[:index])) + choice % len(lines[index])
        return raw[:at] if op == "cut" else raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
    record = json.loads(lines[index])
    here = [p for p in paths if _has(record, p)
            or (op == "set" and isinstance(p[-1], str) and _has(record, p[:-1]))]
    *parents, last = here[choice % len(here)]
    target = record
    for key in parents:
        target = target[key]
    if op == "drop":
        del target[last]
    else:
        target[last] = value
    lines[index] = json.dumps(record).encode("utf-8") + b"\n"
    return b"".join(lines)


def _has(record, path) -> bool:
    for key in path:
        if isinstance(record, dict) and key in record:
            record = record[key]
        elif isinstance(record, list) and isinstance(key, int) and -len(record) <= key < len(record):
            record = record[key]
        else:
            return False
    return True


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg = smoke_config()
    data_dir = cmd_gen_data(cfg, root=root)
    teacher = cmd_train_teacher(cfg, data_dir, root=root)
    pseudo = cmd_pseudo_label(cfg, teacher, data_dir, root=root)
    unsup = cli.load_corpora(data_dir)[0]["unsup"].utt_ids()
    return {"data_dir": data_dir, "teacher": teacher, "pseudo": pseudo, "unsup": unsup}


def run(args) -> tuple:
    """``cli.main(args)``'s exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*args, *SMOKE_SET_ARGS, "--set", "train.steps=0"])
    return code, err.getvalue()


def check(code: int, err: str, valid: bool, path: Path, runs: Path) -> None:
    assert code == (0 if valid else 1), err
    if not valid:
        assert err.startswith(f"error: {path}"), err
        assert not runs.exists()


MUTATIONS = dict(index=st.integers(0, 1000), op=st.sampled_from(["set", "drop", "cut", "flip"]),
                 choice=st.integers(0, 10_000), value=VALUES, mask=st.integers(1, 255))
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(**MUTATIONS)
@example(index=0, op="set", choice=3, value=10**400, mask=1)  # frames[0][0]
@example(index=0, op="set", choice=3, value=True, mask=1)
def test_mutated_corpus_record(pipeline, index, op, choice, value, mask):
    with tempfile.TemporaryDirectory() as tmp:
        data, runs = Path(tmp) / "data", Path(tmp) / "runs"
        shutil.copytree(pipeline["data_dir"], data)
        path = data / "sup.jsonl"
        path.write_bytes(mutate(path.read_bytes(), index, op, choice, value, mask, SUP_PATHS))
        records = records_of(path.read_bytes(), valid_sup)
        count = json.loads((data / "manifest.json").read_text())["counts"]["supervised"]
        code, err = run(["train-teacher", "--data-dir", str(data), "--run-root", str(runs)])
        check(code, err, records is not None and len(records) == count, path, runs)


@FUZZ
@given(**MUTATIONS)
@example(index=0, op="set", choice=5, value=[0, 1], mask=1)  # labels added
def test_mutated_unlabelled_record(pipeline, index, op, choice, value, mask):
    with tempfile.TemporaryDirectory() as tmp:
        data, runs = Path(tmp) / "data", Path(tmp) / "runs"
        shutil.copytree(pipeline["data_dir"], data)
        path = data / "unsup.jsonl"
        path.write_bytes(mutate(path.read_bytes(), index, op, choice, value, mask, UNSUP_PATHS))
        records = records_of(path.read_bytes(), valid_unsup)
        count = json.loads((data / "manifest.json").read_text())["counts"]["unsupervised"]
        read = records is not None and len(records) == count
        # the pseudo terms need a pseudo label for each utterance of a file read
        covered = read and {r["utt_id"] for r in records} <= set(pipeline["unsup"])
        code, err = run(["distill", "--data-dir", str(data), "--teacher", str(pipeline["teacher"]),
                         "--pseudo-labels", str(pipeline["pseudo"]), "--run-root", str(runs)])
        check(code, err, covered, path if not read else pipeline["pseudo"], runs)


@FUZZ
@given(**MUTATIONS)
# records 0 and 3 of the smoke file: labels [], N-best lists [[], [1]] and [[1], []]
@example(index=3, op="set", choice=5, value=[], mask=1)  # nbest[0].labels: [] twice
@example(index=0, op="set", choice=2, value=-1.0, mask=1)  # score off its entry
@example(index=0, op="set", choice=6, value=-1.0, mask=1)  # nbest[0].score off the score
def test_mutated_pseudo_label_record(pipeline, index, op, choice, value, mask):
    with tempfile.TemporaryDirectory() as tmp:
        path, runs = Path(tmp) / "pseudo_labels.jsonl", Path(tmp) / "runs"
        path.write_bytes(mutate(pipeline["pseudo"].read_bytes(), index, op, choice, value, mask,
                                PSEUDO_PATHS))
        records = records_of(path.read_bytes(), valid_pseudo)
        valid = records is not None and set(pipeline["unsup"]) <= {r["utt_id"] for r in records}
        code, err = run(["distill", "--data-dir", str(pipeline["data_dir"]),
                         "--teacher", str(pipeline["teacher"]), "--pseudo-labels", str(path),
                         "--run-root", str(runs)])
        check(code, err, valid, path, runs)



def evaluate_mutated(pipeline, name, paths, valid, split, *mutation) -> None:
    """Mutate one record of the corpus file ``name``, run ``evaluate --sets
    eval unsup`` with the module's teacher and check the property; the file
    is valid where its records are and the manifest counts them for
    ``split``, and where any utt_id it holds is an unsupervised one."""
    with tempfile.TemporaryDirectory() as tmp:
        data, runs = Path(tmp) / "data", Path(tmp) / "runs"
        shutil.copytree(pipeline["data_dir"], data)
        path = data / name
        path.write_bytes(mutate(path.read_bytes(), *mutation, paths))
        records = records_of(path.read_bytes(), valid)
        count = json.loads((data / "manifest.json").read_text())["counts"][split]
        code, err = run(["evaluate", "--data-dir", str(data), "--checkpoint",
                         str(pipeline["teacher"]), "--sets", "eval", "unsup",
                         "--run-root", str(runs)])
        check(code, err, records is not None and len(records) == count and (
            split != "unsupervised" or {r["utt_id"] for r in records} <= set(pipeline["unsup"])),
            path, runs)


@FUZZ
@given(**MUTATIONS)
def test_mutated_eval_record(pipeline, index, op, choice, value, mask):
    evaluate_mutated(pipeline, "eval.jsonl", SUP_PATHS, valid_sup, "eval",
                     index, op, choice, value, mask)


@FUZZ
@given(**MUTATIONS)
@example(index=0, op="set", choice=0, value="sup-00001", mask=1)  # utt_id of no unsup record
def test_mutated_reference_record(pipeline, index, op, choice, value, mask):
    evaluate_mutated(pipeline, "unsup_refs.jsonl", REFS_PATHS, valid_ref, "unsupervised",
                     index, op, choice, value, mask)
