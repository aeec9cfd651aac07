"""The compare mode of tests/pinned_outputs.py: what moved between two trees."""

import json

from pinned_outputs import main


def _write(out, name, rows):
    out.mkdir(exist_ok=True)
    (out / name).write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def test_compare_names_the_reports_and_paths_that_moved(tmp_path, capsys):
    head = {"config": {"seed": 0}, "summary": {"fail": 2, "pass": 3}}
    report = {"check_name": "a", "margin": 0.5,
              "witness": {"kind": "conditional_jensen", "product": {"factors": [[0.5, 0.5]]}}}
    moved = {**report, "witness": {**report["witness"], "kind": "subadditivity"}}
    _write(tmp_path / "A", "suite.jsonl", [head, report, report, {**report, "check_name": "b"}])
    _write(tmp_path / "B", "suite.jsonl", [{**head, "summary": {"fail": 0, "pass": 3}}, moved,
                                           {**report, "margin": 0.25, "witness": {
                                               **moved["witness"], "product": {"factors": [[1.0]]}}},
                                           {**report, "check_name": "b"}])
    _write(tmp_path / "A", "search.jsonl", [report])
    _write(tmp_path / "B", "search.jsonl", [report])
    _write(tmp_path / "A", "gone.jsonl", [report])
    assert main(["--compare", str(tmp_path / "A"), str(tmp_path / "B")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"gone.jsonl: only in {tmp_path / 'A'}",
        "search.jsonl: identical",
        "suite.jsonl: 2 reports: margin, witness.kind, witness.product.factors[]; "
        "outside the reports: summary.fail",
    ]
    assert main(["--compare", str(tmp_path / "B"), str(tmp_path / "B")]) == 0
