"""Self-contained analysis reports.

A report records the measured complexity point together with every setting
that produced it (compressor, trials, seed, uniform mode), so re-running the
analysis from the report alone reproduces its numbers exactly. The creation
timestamp is the only field expected to differ between identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

from .complexity import ComplexityPoint, CompressorHandle
from .errors import DataError
from .trace import Trace
from .transforms import RngSeed

#: Version 2 measures compressed sizes of the dense pair code
#: (``encode_canonical``); version 1 measured fixed-width decimal text.
REPORT_SCHEMA = "trace-complexity-report/2"
_TEXT_ENCODING_SCHEMA = "trace-complexity-report/1"


@dataclass(frozen=True)
class AnalysisReport:
    trace_name: str
    entries: int
    n_ids: int
    source_id_count: int
    dest_id_count: int
    compressor: CompressorHandle
    trials: int
    seed: RngSeed
    point: ComplexityPoint
    slices: dict[str, ComplexityPoint] | None = None
    trace_path: str | None = None
    created_at: str | None = None

    @classmethod
    def build(cls, trace: Trace, point: ComplexityPoint, compressor: CompressorHandle,
              trials: int, seed: RngSeed, slices=None, trace_path=None) -> "AnalysisReport":
        return cls(
            trace_name=trace.name,
            entries=len(trace),
            n_ids=trace.id_space.n,
            source_id_count=int(trace.id_space.source_ids.size),
            dest_id_count=int(trace.id_space.dest_ids.size),
            compressor=compressor,
            trials=trials,
            seed=seed,
            point=point,
            slices=slices,
            trace_path=str(trace_path) if trace_path is not None else None,
            created_at=datetime.now(timezone.utc).isoformat(),
        )

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "trace": {
                "name": self.trace_name,
                "path": self.trace_path,
                "entries": self.entries,
                "n_ids": self.n_ids,
                "source_id_count": self.source_id_count,
                "dest_id_count": self.dest_id_count,
            },
            "compressor": self.compressor.describe(),
            "trials": self.trials,
            "seed": {"seed": self.seed.seed, "stream": list(self.seed.stream)},
            "point": self.point.as_dict(),
            "slices": ({k: v.as_dict() for k, v in self.slices.items()}
                       if self.slices else None),
            "created_at": self.created_at,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise DataError(f"malformed report JSON: {e}")
        try:
            if doc.get("schema") == _TEXT_ENCODING_SCHEMA:
                raise DataError(
                    f"report schema {_TEXT_ENCODING_SCHEMA!r} was measured on the old "
                    f"text encoding, so its ratios cannot be compared with "
                    f"{REPORT_SCHEMA!r} ones; re-analyse the trace")
            if doc.get("schema") != REPORT_SCHEMA:
                raise DataError(
                    f"not a trace-complexity report (schema {doc.get('schema')!r})")
            comp = doc["compressor"]
            seed = doc["seed"]
            return cls(
                trace_name=doc["trace"]["name"],
                entries=doc["trace"]["entries"],
                n_ids=doc["trace"]["n_ids"],
                source_id_count=doc["trace"]["source_id_count"],
                dest_id_count=doc["trace"]["dest_id_count"],
                compressor=CompressorHandle(name=comp["name"], level=comp["level"],
                                            dict_size=comp.get("dict_size")),
                trials=doc["trials"],
                seed=RngSeed(int(seed["seed"]),
                             tuple(int(v) for v in seed.get("stream", ()))),
                point=ComplexityPoint.from_dict(doc["point"]),
                slices=({k: ComplexityPoint.from_dict(v) for k, v in doc["slices"].items()}
                        if doc.get("slices") else None),
                trace_path=doc["trace"].get("path"),
                created_at=doc.get("created_at"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"malformed report: {e!r}") from e


def load_report(path) -> AnalysisReport:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read report {path}: {e}")
    try:
        return AnalysisReport.from_json(text)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
