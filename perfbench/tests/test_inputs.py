"""The generated inputs are a pure function of the workload seed."""

from pathlib import Path

from perfbench import inputs


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_detect_folder_is_byte_identical_per_seed(tmp_path):
    first = inputs.write_detect_folder(tmp_path / "a", seed=3)
    second = inputs.write_detect_folder(tmp_path / "b", seed=3)
    assert _files(first.root) == _files(second.root)
    other = inputs.write_detect_folder(tmp_path / "c", seed=4)
    assert _files(other.root) != _files(first.root)


def test_detect_folder_mixes_formats(tmp_path):
    folder = inputs.write_detect_folder(tmp_path / "f", seed=5)
    names = sorted(p.name for p in folder.root.iterdir())
    assert inputs.SQLITE_FILE in names and inputs.JUNK_FILE in names
    assert len(folder.tables) == 6
    assert folder.n_ragged > 0
    heads = [p.read_bytes()[:2] for p in folder.root.iterdir()
             if p.name not in (inputs.SQLITE_FILE, inputs.JUNK_FILE)]
    assert b"\xff\xfe" in heads                    # the UTF-16 table's BOM
    assert any(h.startswith(b"\xef\xbb") for h in heads)   # UTF-8-BOM


def test_request_schedule_is_byte_identical_per_seed(tmp_path):
    def schedule(root, seed):
        serve = inputs.write_serve_inputs(root, seed)
        mix = inputs.RequestMix(serve, seed, session="s")
        return inputs.schedule_bytes(mix.open_loop(inputs.SERVE_RATE, 2.0))

    assert schedule(tmp_path / "a", 7) == schedule(tmp_path / "b", 7)
    assert schedule(tmp_path / "c", 8) != schedule(tmp_path / "a", 7)


def test_schedule_mixes_reads_writes_and_novel_values(tmp_path):
    serve = inputs.write_serve_inputs(tmp_path, 1)
    mix = inputs.RequestMix(serve, 1, session="s")
    requests = mix.open_loop(inputs.SERVE_RATE, 8.0)
    dues = [r.due for r in requests]
    assert dues == sorted(dues) and dues[-1] < 8.0
    assert 0.8 * 8 * inputs.SERVE_RATE < len(requests) < 1.2 * 8 * inputs.SERVE_RATE
    writes = [r for r in requests if r.op == "update"]
    assert 0.15 < len(writes) / len(requests) < 0.25
    known = {v for column in serve.session_values for v in column}
    values = [c["value"] for r in requests if r.op == "score"
              for c in r.payload["cells"]]
    novel = [v for v in values if v not in known]
    assert len(set(novel)) == len(novel)           # never seen twice
    assert 0.15 < len(novel) / len(values) < 0.35
