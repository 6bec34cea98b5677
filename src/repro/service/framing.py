"""The one frame reader and writer behind every service connection.

:class:`FrameStream` is the asyncio protocol of both ends of the wire:
the server's connections (:class:`~repro.service.server.SolveServer`,
and through it the sharded front-end) and the client's
(:class:`~repro.service.client.AsyncServiceClient`, and through it the
front-end's links to its workers).  It reads a frame
(:mod:`repro.service.protocol`) the way the frame is laid out:

* header lines land in a small buffer, which grows only for a long
  line and shrinks back after it;
* each tail is received straight into its own preallocated buffer
  (``recv_into``), and :meth:`FrameStream.readexactly` hands it out as
  one read-only view that the attachment arrays share, so a
  multi-megabyte instance is copied only by the kernel on its way from
  the socket to the parser (but for the bytes that arrived with its
  header line).

A line longer than :data:`~repro.service.protocol.MAX_FRAME_BYTES`
raises a fatal ``frame-too-large``, a tail cut short by end-of-stream
a fatal ``bad-frame``, and reading pauses while a complete line waits
for its reader, so a connection buffers at most one header chunk ahead
of the frame being dispatched.

Writes go out as the frame's buffers (:func:`~repro.service.protocol.
frame_parts`): large attachments are handed to the transport as they
are, small pieces are joined, so no frame is copied into one buffer
first.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Sequence

import numpy as np

from .protocol import MAX_FRAME_BYTES, ErrorCode, ProtocolError

__all__ = ["FrameStream"]

#: the header buffer's size, and the size it shrinks back to after a
#: long line
_HEADER_CHUNK = 64 * 1024

#: frame pieces shorter than this are joined before they reach the
#: transport (one send for a burst of small frames); longer ones are
#: written as they are
_JOIN_BELOW = 64 * 1024


class FrameStream(asyncio.BufferedProtocol):
    """One connection's frame reader and writer.

    ``serve``, when given, is started as a task on the new stream as
    soon as the connection is made (the server's per-connection
    coroutine); a client creates its stream without one and drives it
    itself.  One coroutine reads (:meth:`readline`,
    :meth:`readexactly`); any number write (:meth:`write` then
    :meth:`drain`).
    """

    def __init__(
        self, serve: Callable[["FrameStream"], Awaitable[None]] | None = None
    ) -> None:
        self._serve = serve
        self._loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None
        self._task: asyncio.Task | None = None
        # header bytes: _buf[_start:_end] is received and not handed
        # out; no newline lies in _buf[_start:_scan]
        self._buf = bytearray(_HEADER_CHUNK)
        self._start = self._end = self._scan = 0
        # the tail being received, and how much of it is in
        self._tail: memoryview | None = None
        self._filled = 0
        self._waiter: asyncio.Future | None = None
        self._eof = False
        self._paused = False
        self._write_paused = False
        self._drainers: list[asyncio.Future] = []
        self._closed = self._loop.create_future()

    # ------------------------------------------------------------------
    # protocol callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        if self._serve is not None:
            # the stream holds its task: the loop keeps tasks weakly
            self._task = self._loop.create_task(self._serve(self))

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._tail is not None:
            return self._tail[self._filled :]
        if self._end == len(self._buf):
            self._make_room()
        return memoryview(self._buf)[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._tail is not None:
            self._filled += nbytes
            if self._filled == len(self._tail):
                self._tail = None
                self._wake()
            return
        self._end += nbytes
        if self._overlong():
            # the header buffer is full of one line: nothing more fits
            self._pause()
        elif self._waiter is None and self._line_end() >= 0:
            # a complete line waits for its reader: read no further
            # until it is taken
            self._pause()
        self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        # keep the transport open: a peer that shut its write side
        # still reads the answers to what it sent
        return True

    def connection_lost(self, exc: Exception | None) -> None:
        # a connection lost to an error ends the stream like an EOF:
        # the reader sees the end, a writer's drain returns
        self._eof = True
        self._wake()
        for fut in self._drainers:
            if not fut.done():
                fut.set_result(None)
        self._drainers.clear()
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        for fut in self._drainers:
            if not fut.done():
                fut.set_result(None)
        self._drainers.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    async def readline(self) -> bytes:
        """The next header line, ``\\n`` included; at end of stream
        whatever is left (``b""`` when nothing is).

        Raises a fatal ``frame-too-large`` :class:`ProtocolError` for a
        line longer than ``MAX_FRAME_BYTES``."""
        while True:
            end = self._line_end()
            if end < 0 and self._overlong():
                raise ProtocolError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes",
                    code=ErrorCode.FRAME_TOO_LARGE,
                    fatal=True,
                )
            if end < 0 and self._eof:
                end = self._end
            if end >= 0:
                line = bytes(memoryview(self._buf)[self._start : end])
                self._start = self._scan = end
                self._settle()
                return line
            await self._wait()

    async def readexactly(self, n: int) -> memoryview:
        """The next ``n`` bytes (a frame's tail), as a read-only view of
        a buffer of their own that the socket filled directly.

        Raises a fatal ``bad-frame`` :class:`ProtocolError` when the
        stream ends first."""
        tail = memoryview(np.empty(n, dtype=np.uint8))
        have = min(n, self._end - self._start)
        tail[:have] = memoryview(self._buf)[self._start : self._start + have]
        self._start += have
        self._scan = max(self._scan, self._start)
        self._settle()
        if have < n:
            self._tail, self._filled = tail, have
            try:
                while self._tail is not None:
                    if self._eof:
                        raise ProtocolError(
                            "frame truncated: the stream ended inside "
                            "its attachments",
                            fatal=True,
                        )
                    await self._wait()
            finally:
                self._tail = None
        return tail.toreadonly()

    async def _wait(self) -> None:
        """Read until the buffers change (more bytes, end of stream)."""
        self._waiter = self._loop.create_future()
        if self._paused and self.transport is not None:
            self._paused = False
            self.transport.resume_reading()
        try:
            await self._waiter
        finally:
            self._waiter = None

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _pause(self) -> None:
        if not self._paused and self.transport is not None:
            self._paused = True
            self.transport.pause_reading()

    def _line_end(self) -> int:
        """One past the next newline, or -1 (remembering how far the
        search got, so a long line is scanned once)."""
        i = self._buf.find(b"\n", self._scan, self._end)
        if i < 0:
            self._scan = self._end
            return -1
        return i + 1

    def _overlong(self) -> bool:
        return self._end - self._start > MAX_FRAME_BYTES

    def _make_room(self) -> None:
        """Move the pending bytes to the front of the header buffer, and
        grow it (to one byte past ``MAX_FRAME_BYTES`` at most, enough to
        tell an overlong line) when they fill it."""
        pending = self._end - self._start
        if self._start:
            self._buf[:pending] = self._buf[self._start : self._end]
            self._scan -= self._start
            self._start, self._end = 0, pending
        if pending == len(self._buf):
            grown = bytearray(min(2 * len(self._buf), MAX_FRAME_BYTES + 1))
            grown[:pending] = self._buf
            self._buf = grown

    def _settle(self) -> None:
        """After bytes are handed out: start an emptied header buffer
        over from its front (so small frames never walk it to its end),
        and hand one that grew for a long line back."""
        pending = self._end - self._start
        if not pending:
            self._start = self._end = self._scan = 0
        if len(self._buf) > _HEADER_CHUNK and pending <= _HEADER_CHUNK // 2:
            small = bytearray(_HEADER_CHUNK)
            small[:pending] = self._buf[self._start : self._end]
            self._buf = small
            self._scan -= self._start
            self._start, self._end = 0, pending

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(self, parts: Sequence[bytes | memoryview]) -> None:
        """Queue one or more frames' buffers (:func:`~repro.service.
        protocol.frame_parts`) in order; pieces shorter than 64 KiB are
        joined, the rest go to the transport as they are."""
        assert self.transport is not None
        small: list[bytes | memoryview] = []
        for part in parts:
            if len(part) < _JOIN_BELOW:
                small.append(part)
                continue
            if small:
                self.transport.write(b"".join(small))
                small = []
            self.transport.write(part)
        if small:
            self.transport.write(b"".join(small))

    async def drain(self) -> None:
        """Wait until the transport takes more writes, or the connection
        is gone (the reader then sees the end of the stream)."""
        if self._write_paused and not self._closed.done():
            fut = self._loop.create_future()
            self._drainers.append(fut)
            await fut

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    async def wait_closed(self) -> None:
        """Wait until the connection is gone."""
        await self._closed
