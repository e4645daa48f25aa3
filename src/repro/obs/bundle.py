"""Post-mortem bundles: one archive with everything a debugger needs.

``zoomie obs bundle FILE`` (and :func:`write_bundle`) packs the
current observability state into a single zip with a **versioned
manifest** — the FPGA equivalent of a core dump plus `sosreport`:

- ``manifest.json`` — format name, :data:`BUNDLE_VERSION`, section
  list, and the triggering flight event (if any), so tooling can
  reject bundles it does not understand before reading anything else;
- ``flight.json`` — the latest flight-recorder dump (or a live
  snapshot when nothing has triggered);
- ``metrics.json`` — the registry snapshot;
- ``health.json`` — the :class:`~repro.obs.health.HealthReport` over
  the registry's full history;
- ``trace.json`` — Chrome-trace events for whatever spans the ring
  still holds;
- ``journal_tail.txt`` — the last lines of the write-ahead command
  journal (optional).

:func:`load_bundle` reverses the packing for tests and tooling; it
also reads version-1 bundles, whose three extra sections (a metrics
text exposition, caller config and the BENCH trajectory) load as
they are.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .flight import FlightRecorder, get_flight_recorder
from .health import MetricsWindow, evaluate
from .metrics import MetricsRegistry, get_registry
from .trace import get_tracer

__all__ = ["BUNDLE_FORMAT", "BUNDLE_VERSION", "Bundle", "load_bundle",
           "write_bundle"]

BUNDLE_FORMAT = "zoomie-obs-bundle"
#: Bump on any manifest/section shape change.
BUNDLE_VERSION = 2

#: How many journal lines ride along in the bundle tail.
JOURNAL_TAIL_LINES = 64


@dataclass
class Bundle:
    """A loaded bundle: the manifest plus parsed sections."""

    path: Path
    manifest: dict
    sections: dict[str, object]

    def section(self, name: str):
        return self.sections.get(name)


def write_bundle(path, registry: Optional[MetricsRegistry] = None,
                 flight: Optional[FlightRecorder] = None,
                 journal_path=None) -> Path:
    """Write the post-mortem archive; returns its path."""
    registry = registry if registry is not None else get_registry()
    flight = flight if flight is not None else get_flight_recorder()
    health = evaluate(MetricsWindow(registry))
    dump = flight.latest_dump(registry)
    sections: dict[str, object] = {
        "flight.json": dump,
        "metrics.json": registry.as_dict(),
        "health.json": health.as_dict(),
        "trace.json": get_tracer().export_chrome(),
    }
    text_sections: dict[str, str] = {}
    if journal_path is not None and Path(journal_path).exists():
        lines = Path(journal_path).read_text().splitlines()
        text_sections["journal_tail.txt"] = \
            "\n".join(lines[-JOURNAL_TAIL_LINES:]) + "\n"
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "created_unix": time.time(),
        "trigger": dump.get("trigger"),
        "sections": sorted(list(sections) + list(text_sections)),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w",
                         compression=zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("manifest.json",
                         json.dumps(manifest, indent=1, default=repr))
        for name, payload in sections.items():
            archive.writestr(
                name, json.dumps(payload, indent=1, default=repr))
        for name, text in text_sections.items():
            archive.writestr(name, text)
    return path


def load_bundle(path) -> Bundle:
    """Re-open a bundle; ``.json`` sections come back parsed."""
    path = Path(path)
    with zipfile.ZipFile(path) as archive:
        manifest = json.loads(archive.read("manifest.json"))
        if manifest.get("format") != BUNDLE_FORMAT:
            raise ValueError(
                f"{path} is not a {BUNDLE_FORMAT} archive "
                f"(format={manifest.get('format')!r})")
        if manifest.get("version", 0) > BUNDLE_VERSION:
            raise ValueError(
                f"{path} is bundle version {manifest.get('version')}, "
                f"newer than this reader ({BUNDLE_VERSION})")
        sections: dict[str, object] = {}
        for name in archive.namelist():
            if name == "manifest.json":
                continue
            raw = archive.read(name)
            if name.endswith(".json"):
                sections[name] = json.loads(raw)
            else:
                sections[name] = raw.decode()
    return Bundle(path=path, manifest=manifest, sections=sections)
