"""Shared test settings and the in-process CLI runner.

Property tests run under a derandomized hypothesis profile with no
example database, so every run of the suite draws the same examples
and stays within a few seconds.
"""

import contextlib
import io

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("deterministic")


class CliResult:
    """What one `puiseux ...` run left: its exit status, what it printed
    on each stream, and the SystemExit that ended it with a nonzero
    status. `output` is stdout followed by stderr."""

    def __init__(self, exit_code: int, stdout: str, stderr: str, exception: SystemExit | None):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.exception = exception
        self.output = stdout + stderr
        self.stdout_bytes = stdout.encode()


def run_cli(argv) -> CliResult:
    """Run `puiseux argv` in this process with both streams captured.

    Anything but a SystemExit propagates, so a traceback fails the test.
    """
    from puiseux.cli import main

    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as done:
            code = done.code if isinstance(done.code, int) else int(done.code is not None)
            exception = done if code else None
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
