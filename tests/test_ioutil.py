"""Atomic writes: the written file's mode and what is left beside it."""

import os
import stat
import threading

import pytest

from crossemo.ioutil import atomic_write_bytes


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    # synthesis writes its WAVs from a worker thread, so write from one too
    worker = threading.Thread(target=atomic_write_bytes, args=(tmp_path / "b.bin", b"b"))
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "a.bin", b"a", b"a")
        worker.start()
        worker.join()
    finally:
        os.umask(old)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {
        "a.bin": mode, "b.bin": mode,
    }
    assert (tmp_path / "a.bin").read_bytes() == b"aa"


def test_a_crashed_write_leaves_no_temp_and_the_old_file(tmp_path):
    path = tmp_path / "a.bin"
    atomic_write_bytes(path, b"old")

    with pytest.raises(TypeError):  # the second chunk is not bytes-like
        atomic_write_bytes(path, b"new", object())
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
    assert path.read_bytes() == b"old"
