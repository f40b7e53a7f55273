import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts: after it, none is left running
    or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running" if pid == 0
                else f"child process {pid} was left unreaped")
