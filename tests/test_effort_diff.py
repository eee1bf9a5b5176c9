import json

from effort_diff import summary


def _dump(path, rows):
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    return str(path)


def _row(label, calls, nodes, workload="exact-corpus"):
    return {"workload": workload, "seed": 7, "label": label, "answer": {}, "kernel_calls": calls, "kernel_nodes": nodes}


def test_same_effort_lists_no_call(tmp_path):
    rows = [_row("Petersen", 3, 40), _row("Clebsch", 9, 700)]
    text = summary(_dump(tmp_path / "base.jsonl", rows), _dump(tmp_path / "head.jsonl", rows))
    assert "| exact-corpus | 12 | 12 | 740 | 740 |" in text
    assert "0 of 2 calls changed their effort." in text


def test_moved_effort_lists_each_call_largest_first(tmp_path):
    base = [_row("Petersen", 3, 40), _row("Clebsch", 9, 700), _row("K4", 1, 1, "order7-census")]
    head = [_row("Petersen", 4, 45), _row("Clebsch", 9, 600), _row("K4", 1, 1, "order7-census")]
    text = summary(_dump(tmp_path / "base.jsonl", base), _dump(tmp_path / "head.jsonl", head))
    assert "2 of 3 calls changed their effort." in text
    rows = [line for line in text.splitlines() if line.startswith("| exact-corpus | 7 |")]
    assert rows == [
        "| exact-corpus | 7 | Clebsch | 9 → 9 | 700 → 600 |",
        "| exact-corpus | 7 | Petersen | 3 → 4 | 40 → 45 |",
    ]
