import pytest

import edda.mdgraph


class _FailingHandle:
    """A file handle whose `fail_at`-th write raises OSError."""

    def __init__(self, handle, fail_at):
        self.handle, self.fail_at, self.writes = handle, fail_at, 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("no space left on device")
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)


@pytest.fixture()
def fail_writes(monkeypatch):
    """`fail_writes(n, name="")` makes the n-th write to every file that
    `atomic_write` opens whose name contains `name` raise OSError;
    `monkeypatch.undo()` disarms it."""
    real_open = open

    def arm(fail_at, name=""):
        def failing_open(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)
            return _FailingHandle(handle, fail_at) if name in str(file) else handle

        monkeypatch.setattr(edda.mdgraph, "open", failing_open, raising=False)

    return arm
