"""Symbolic guest memory with page-level copy-on-write.

Each state's memory is a byte-granular symbolic overlay on top of the
concrete machine memory.  Forking shares overlay pages between parent and
child until either writes (page-level COW) -- the same extension the paper
made to KLEE's object-level COW to cope with tens of thousands of states
(section 3.4).
"""

from repro.layout import PAGE_SIZE
from repro.symex.expr import bv_concat, bv_extract, bv_zext, is_concrete


class SymMemory:
    """Concrete backing + symbolic byte overlay with COW pages."""

    def __init__(self, concrete_read, pages=None, owned=None):
        self._concrete_read = concrete_read
        #: page number -> {offset: byte value (int or 8-bit Expr)}
        self._pages = pages if pages is not None else {}
        #: pages this instance may mutate without copying
        self._owned = owned if owned is not None else set(self._pages)

    def fork(self):
        """Cheap fork: share all pages; both sides lose ownership."""
        self._owned = set()
        return SymMemory(self._concrete_read, dict(self._pages), set())

    # ------------------------------------------------------------------

    def _page_for_write(self, page_number):
        page = self._pages.get(page_number)
        if page is None:
            page = {}
            self._pages[page_number] = page
            self._owned.add(page_number)
        elif page_number not in self._owned:
            page = dict(page)
            self._pages[page_number] = page
            self._owned.add(page_number)
        return page

    def read_byte(self, address):
        """Read one byte: overlay value or concrete backing."""
        page = self._pages.get(address // PAGE_SIZE)
        if page is not None:
            value = page.get(address % PAGE_SIZE)
            if value is not None:
                return value
        return self._concrete_read(address, 1)

    def write_byte(self, address, value):
        page = self._page_for_write(address // PAGE_SIZE)
        page[address % PAGE_SIZE] = value

    def read(self, address, width):
        """Read ``width`` bytes, little endian.

        Returns an int when every byte is concrete, else an expression
        zero-extended to 32 bits.
        """
        parts = [self.read_byte(address + i) for i in range(width)]
        if all(is_concrete(p) for p in parts):
            value = 0
            for i, part in enumerate(parts):
                value |= (part & 0xFF) << (8 * i)
            return value
        return bv_zext(bv_concat(parts), 32)

    def write(self, address, width, value):
        """Write ``width`` bytes, little endian; ``value`` int or Expr."""
        for i in range(width):
            self.write_byte(address + i, bv_extract(value, 8 * i, 8))

    def write_bytes(self, address, data):
        for i, byte in enumerate(data):
            self.write_byte(address + i, byte)

