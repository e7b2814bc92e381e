"""The comparison of tools/corpus.py, fed hand-written records.  The corpus
itself takes about as long as the acceptance sweep and is run by hand."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parents[1] / "tools" / "corpus.py")
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)


def record(case, status="Converged", iterations=10, fallbacks=0, res2=1e-9, x=(1.0, 2.0)):
    return {"case": case, "status": status, "iterations": iterations, "fallbacks": fallbacks,
            "res2": float.hex(res2), "omega": float.hex(1e-7), "x": [float.hex(v) for v in x]}


BASE = [record("same"), record("rounded"), record("slower"), record("failed"), record("fell-back")]
NEW = [
    record("same"),
    record("rounded", res2=1e-9 * (1 + 2**-40), x=(1.0, 2.0 + 2**-40)),
    record("slower", iterations=11),
    record("failed", status="MaxIterReached", iterations=3000),
    record("fell-back", fallbacks=1),
]


def summary(capsys):
    return capsys.readouterr().out.splitlines()[-1]


def test_four_counts_and_exit_on_status_change(capsys):
    # a run that stops at the cap moves x more than any Converged one
    base = BASE + [record("capped", status="MaxIterReached", iterations=3000)]
    new = NEW + [record("capped", status="MaxIterReached", iterations=3000, x=(1.0, 2.5))]
    assert corpus.compare(base, new) == 1
    assert summary(capsys) == (
        "1/6 bit-identical, 2 rounding only (largest relative move: x 0.25, "
        "x of Converged cases 4.55e-13, res2 9.09e-13), 2 iteration changes, 1 status changes")


def test_every_changed_case_is_named(capsys):
    corpus.compare(BASE, NEW)
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "rounding rounded: x 4.55e-13",
        "iterations slower: 10 -> 11, fallbacks 0 -> 0",
        "status failed: Converged -> MaxIterReached",
        "iterations fell-back: 10 -> 10, fallbacks 0 -> 1",
    ]


def test_no_status_change_exits_zero(capsys):
    assert corpus.compare(BASE[:3], NEW[:3]) == 0
    assert summary(capsys).endswith("1 iteration changes, 0 status changes")


def test_identical_runs(capsys):
    assert corpus.compare(BASE, BASE) == 0
    assert summary(capsys).startswith("5/5 bit-identical, 0 rounding only")


def test_nan_appearing_is_an_infinite_move(capsys):
    new = [record("same", res2=float("nan"))]
    assert corpus.compare([record("same")], new) == 0
    assert "res2 inf" in summary(capsys)


def test_different_case_sets_exit_two(capsys):
    assert corpus.compare(BASE, NEW[:4]) == 2
    assert summary(capsys) == "case sets differ: base has 5 cases, new has 4"


def test_main_writes_and_compares(tmp_path, monkeypatch, capsys):
    base = tmp_path / "base.jsonl"
    base.write_text("".join(json.dumps(r) + "\n" for r in BASE))
    monkeypatch.setattr(corpus, "run_corpus", lambda: NEW)
    assert corpus.main(["--out", str(tmp_path / "new.jsonl"), "--against", str(base)]) == 1
    assert corpus.read_records(tmp_path / "new.jsonl") == NEW
    assert summary(capsys).endswith("1 status changes")
    assert corpus.main(["--against", str(tmp_path / "new.jsonl")]) == 0


def test_main_needs_out_or_against():
    with pytest.raises(SystemExit):
        corpus.main([])


def test_corpus_has_1420_distinct_cases(monkeypatch):
    monkeypatch.setattr(corpus, "gen_problem1", lambda n, seed: corpus.fixture("ex21"))
    ids = [case for case, *_ in corpus.cases()]
    assert len(ids) == len(set(ids)) == 1420


def test_cross_judges_status_iterations_and_x(capsys):
    pairs = [
        (record("same"), record("same"), 1.0),
        (record("rounded"), record("rounded", x=(1.0, 2.0 + 2**-40)), 2.0),
        (record("slower"), record("slower", iterations=11), 0.5),
        (record("fell-back"), record("fell-back", fallbacks=1), 1.9),
        (record("moved"), record("moved", status="MaxIterReached", x=(1.0, 2.0 + 1e-11)), 1.0),
        (record("capped", status="MaxIterReached"),
         record("capped", status="MaxIterReached", x=(1.0, 2.5)), 1.9),
    ]
    assert corpus.judge_cross(pairs, 3) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        "changed slower: status, iterations, fallbacks ('Converged', 10, 0) -> ('Converged', 11, 0)",
        "changed fell-back: status, iterations, fallbacks ('Converged', 10, 0) -> ('Converged', 10, 1)",
        "changed moved: status, iterations, fallbacks ('Converged', 10, 0) -> ('MaxIterReached', 10, 0)",
    ]
    assert lines[-1] == (
        "cross: 6 pairs, 3 failed, 3 bit-identical in x, largest judged x move 4.55e-13; "
        "1 alpha > 1 runs not converged, not judged (largest x move 0.25); 3 skipped (dense copy too large)")


@pytest.mark.parametrize("status, alpha, judged", [("Converged", 1.9, True), ("MaxIterReached", 1.0, True),
                                                   ("NonFinite", 1.0, True), ("MaxIterReached", 1.9, False),
                                                   ("NonFinite", 2.0, False)])
def test_cross_judges_x_where_it_means_something(status, alpha, judged, capsys):
    # x of a Converged run, or of any run at alpha <= 1, is judged at 1e-12
    far = (record("far", status), record("far", status, x=(1.0, 2.0 + 1e-11)), alpha)
    near = (record("near", status), record("near", status, x=(1.0, 2.0 + 1e-13)), alpha)
    assert corpus.judge_cross([near], 0) == 0
    assert corpus.judge_cross([far], 0) == int(judged)
    out = capsys.readouterr().out
    assert ("x far: relative move 5e-12" in out) is judged


def test_cross_exits_zero_on_agreement(capsys):
    assert corpus.judge_cross([(record("same"), record("same"), 1.0)], 0) == 0
    assert summary(capsys).startswith("cross: 1 pairs, 0 failed, 1 bit-identical in x")


def test_cross_takes_the_other_storage_of_each_tensor(monkeypatch):
    dense = corpus.fixture("ex22").tensor
    coo = corpus.other_storage(dense)
    assert isinstance(coo, corpus.SparseTensor) and corpus.entries(coo) == corpus.entries(dense)
    back = corpus.other_storage(coo)
    assert isinstance(back, corpus.DenseTensor) and back.packed.tobytes() == dense.packed.tobytes()
    monkeypatch.setattr(corpus, "DENSE_COPY_MAX_BYTES", 8 * dense.dim**dense.order - 1)
    corpus.other_storage.cache_clear()
    assert corpus.other_storage(coo) is None


def test_main_cross_runs_alone(monkeypatch):
    monkeypatch.setattr(corpus, "run_cross", lambda: ([], 0))
    assert corpus.main(["--cross"]) == 0
    with pytest.raises(SystemExit):
        corpus.main(["--cross", "--out", "x.jsonl"])
