"""Deterministic metrics report files (csv or jsonl, 6-decimal floats)."""

from dataclasses import dataclass

FIELDS = ("sample_id", "dsc", "iou_fg", "miou", "acc", "sen", "spe", "hd95")


@dataclass(frozen=True)
class MetricsRow:
    sample_id: int
    dsc: float
    iou_fg: float
    miou: float
    acc: float
    sen: float
    spe: float
    hd95: float


def _fmt(value):
    return f"{value:.6f}"


def write_metrics_report(rows, path, fmt: str) -> None:
    """Write rows sorted by sample_id; both formats carry identical values."""
    rows = sorted(rows, key=lambda r: r.sample_id)
    lines = []
    if fmt == "csv":
        lines.append(",".join(FIELDS))
        for r in rows:
            lines.append(",".join([str(r.sample_id)] + [_fmt(getattr(r, f)) for f in FIELDS[1:]]))
    elif fmt == "jsonl":
        for r in rows:
            parts = [f'"sample_id": {r.sample_id}']
            parts += [f'"{f}": {_fmt(getattr(r, f))}' for f in FIELDS[1:]]
            lines.append("{" + ", ".join(parts) + "}")
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines))
        if lines:
            f.write("\n")
