"""Operation tally shared by the worker and the runner."""


class Ops:
    """Counts operations (stage calls, sentences, checks) and keeps the
    first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok
