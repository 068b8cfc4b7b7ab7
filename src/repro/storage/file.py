"""Block-granular file I/O over one database directory.

The :class:`FileManager` is the only code in the library that touches the
disk for table data.  Every read and write moves exactly one block between a
file under the database directory and a :class:`~repro.storage.page.Page`
with one positioned system call (``os.pread`` / ``os.pwrite``), and the
manager counts those transfers so tests and benchmarks can assert I/O
behaviour rather than guess from wall-clock time.
"""

from __future__ import annotations

import os
from typing import Dict, IO

from repro.errors import StorageError
from repro.storage.page import DEFAULT_BLOCK_SIZE, BlockId, Page


class FileManager:
    """Reads and writes fixed-size blocks of files in one directory.

    File handles are opened lazily on first use and kept open for the life of
    the manager; :meth:`close` releases them.  The manager owns each open
    file's block count — read from the file once, when it is opened, and
    kept current by every write — so neither a bounds check nor
    :meth:`block_count` asks the operating system.  Block numbers beyond the
    end of a file are legal write targets — the blocks in between read back
    as zeros — but reading past the end is an error, since it means a
    caller holds a stale block count, and so is a read that comes back short:
    the file was truncated behind the manager's back.  After :meth:`close`
    every call that would reach a file raises: a closed manager never
    reopens one behind its owner's back.
    """

    def __init__(self, directory: str, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self.directory = os.path.abspath(directory)
        self.block_size = int(block_size)
        if self.block_size < 64:
            raise StorageError(f"block size {block_size} is too small to be useful")
        os.makedirs(self.directory, exist_ok=True)
        self._handles: Dict[str, IO[bytes]] = {}
        self._blocks: Dict[str, int] = {}
        self.blocks_read = 0
        self.blocks_written = 0
        self.closed = False

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every open file handle; the manager is unusable afterwards."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._blocks.clear()
        self.closed = True

    def check_open(self) -> None:
        """Raise :class:`StorageError` once the manager is closed."""
        if self.closed:
            raise StorageError(f"storage in {self.directory!r} is closed")

    def __enter__(self) -> "FileManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- block I/O ---------------------------------------------------------------

    def read(self, block: BlockId, page: Page) -> None:
        """Fill ``page`` with the contents of ``block``."""
        self._check_page(page)
        handle = self._handle(block.file_name)
        if not 0 <= block.number < self._blocks[block.file_name]:
            raise StorageError(f"read past end of file: {block}")
        raw = os.pread(handle.fileno(), self.block_size, block.number * self.block_size)
        if len(raw) != self.block_size:
            raise StorageError(
                f"short read of {block}: {len(raw)} of {self.block_size} bytes "
                "(the file was truncated)"
            )
        page.data[:] = raw
        self.blocks_read += 1

    def write(self, block: BlockId, page: Page) -> None:
        """Write ``page`` to ``block``, extending the file if needed."""
        self._check_page(page)
        handle = self._handle(block.file_name)
        written = os.pwrite(handle.fileno(), page.data, block.number * self.block_size)
        if written != self.block_size:
            raise StorageError(f"short write of {block}: {written} of {self.block_size} bytes")
        if block.number >= self._blocks[block.file_name]:
            self._blocks[block.file_name] = block.number + 1
        self.blocks_written += 1

    def append(self, file_name: str, page: Page) -> BlockId:
        """Append ``page`` as a new block at the end of ``file_name``."""
        block = BlockId(file_name, self.block_count(file_name))
        self.write(block, page)
        return block

    def block_count(self, file_name: str) -> int:
        """Number of whole blocks currently in ``file_name`` (0 if absent)."""
        count = self._blocks.get(file_name)
        if count is not None:
            return count
        self.check_open()
        path = self._path(file_name)
        if not os.path.exists(path):
            return 0
        return os.path.getsize(path) // self.block_size

    def delete(self, file_name: str) -> None:
        """Remove ``file_name`` and forget its handle (no-op if absent)."""
        self.check_open()
        handle = self._handles.pop(file_name, None)
        self._blocks.pop(file_name, None)
        if handle is not None:
            handle.close()
        path = self._path(file_name)
        if os.path.exists(path):
            os.remove(path)

    # -- internals ---------------------------------------------------------------

    def _check_page(self, page: Page) -> None:
        if page.block_size != self.block_size:
            raise StorageError(
                f"page of {page.block_size} bytes does not match the manager's "
                f"{self.block_size}-byte blocks"
            )

    def _path(self, file_name: str) -> str:
        if os.sep in file_name or (os.altsep and os.altsep in file_name):
            raise StorageError(f"file name {file_name!r} must not contain path separators")
        return os.path.join(self.directory, file_name)

    def _handle(self, file_name: str) -> IO[bytes]:
        handle = self._handles.get(file_name)
        if handle is None:
            self.check_open()
            path = self._path(file_name)
            # Unbuffered: every transfer is one positioned call on the descriptor.
            handle = open(path, "r+b" if os.path.exists(path) else "w+b", buffering=0)
            self._handles[file_name] = handle
            self._blocks[file_name] = os.fstat(handle.fileno()).st_size // self.block_size
        return handle
