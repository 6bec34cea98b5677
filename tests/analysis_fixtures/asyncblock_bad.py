# repro: domain=service
"""Known-bad async-blocking fixture: every way to stall the loop.

Covers the direct blocking calls, the synchronous engine solve, and
the one-hop indirection through a sync helper — the shape that hid
the pre-fix ``server._op_solve`` on-loop instance parse behind
``self._parse_instance``.
"""

import time


class Handler:
    def __init__(self, engine):
        self.engine = engine

    def _parse(self, data):
        # sync helper performing CPU-bound wire parsing
        return hypergraph_from_wire(data)  # noqa: F821 — parsed, not run

    async def handle(self, payload):
        hg = self._parse(payload)  # line: transitive-parse
        return self.engine.solve(hg)  # line: engine-solve

    async def receive(self, line):
        return decode_frame(line)  # noqa: F821  # line: decode-frame

    async def backoff(self):
        time.sleep(0.1)  # line: time-sleep

    async def snapshot(self, path):
        with open(path) as f:  # line: open
            return f.read()

    async def forward(self, sock, frame):
        sock.sendall(frame)  # line: sendall
        return sock.recv(4096)  # line: recv
