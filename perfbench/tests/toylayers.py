"""Stand-in entry points for the tracer tests: each sleeps a known time
and calls the next layer down."""

import time


def leaf(ms):
    time.sleep(ms / 1e3)
    return ms


class Middle:
    def work(self, ms):
        time.sleep(ms / 1e3)
        return leaf(ms)

    @staticmethod
    def helper(x):
        return x + 1


def top(ms):
    time.sleep(ms / 1e3)
    return Middle().work(ms)
