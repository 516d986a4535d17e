import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_search_table.py"


def files_of(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_quick_table_is_identical_across_workers_and_reruns(tmp_path, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    out = {}
    for workers in (1, 2):
        out_dir = tmp_path / f"w{workers}"
        argv = [
            "--quick", "--max-n", "2", "--max-k", "3",
            "--workers", str(workers), "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        out[workers] = files_of(out_dir)
        assert main(argv) == 0
        assert files_of(out_dir) == out[workers]
    assert sorted(out[1]) == [
        "type_n1_k2_span6.txt",
        "type_n1_k3_span6.txt",
        "type_n2_k2_span6.txt",
        "type_n2_k3_span6.txt",
    ]
    assert out[1] == out[2]
    assert "Lower bounds on the toughest-instance density" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_refused_before_any_output(tmp_path, capsys, workers):
    main = runpy.run_path(str(SCRIPT))["main"]
    out_dir = tmp_path / "table"
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--workers", workers, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()
