"""Standalone SVG charts for attribution reports.

No plotting dependency: charts are built as f-string SVG documents. Output
is deterministic; the optional generation timestamp comment is off by
default so identical inputs produce identical bytes.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from .explain import rank_by_magnitude

_FONT = "font-family='Helvetica,Arial,sans-serif'"
_WIDTH = 640
_POS = "#d94801"
_NEG = "#2171b5"
_GRID = "#cccccc"
_TEXT = "#222222"


def _escape(text: str) -> str:
    """``text`` as XML character data, byte for byte what
    ``xml.sax.saxutils.escape`` returns; that module imports
    ``urllib.request``, and with it the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    """Fixed short decimal so layouts do not wobble with value magnitude."""
    return f"{v:.2f}"


def _header(height: int, title: str, timestamp: bool) -> list:
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_WIDTH}' height='{height}' "
        f"viewBox='0 0 {_WIDTH} {height}'>"
    ]
    if timestamp:
        now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
        parts.append(f"<!-- generated {now} -->")
    parts.append(f"<rect width='{_WIDTH}' height='{height}' fill='white'/>")
    parts.append(
        f"<text x='{_WIDTH / 2}' y='24' text-anchor='middle' {_FONT} "
        f"font-size='15' fill='{_TEXT}'>{_escape(title)}</text>"
    )
    return parts


def bar_chart(
    names,
    values,
    title: str = "Feature attribution",
    timestamp: bool = False,
) -> str:
    """Horizontal signed bar chart, one row per feature, order preserved."""
    names = list(names)
    values = np.asarray(values, dtype=np.float64)
    if len(names) != values.size or not names:
        raise ValueError("names and values must be non-empty and equal length")

    row_h = 24
    top = 44
    label_w = 150
    height = top + row_h * len(names) + 30
    span = max(float(np.max(np.abs(values))), 1e-12)
    plot_w = _WIDTH - label_w - 80
    x0 = label_w + plot_w / 2.0
    scale = (plot_w / 2.0) / span

    parts = _header(height, title, timestamp)
    parts.append(
        f"<line x1='{x0}' y1='{top - 8}' x2='{x0}' y2='{top + row_h * len(names)}' "
        f"stroke='{_GRID}' stroke-width='1'/>"
    )
    for i, (name, v) in enumerate(zip(names, values)):
        y = top + i * row_h
        bar_len = abs(v) * scale
        bx = x0 if v >= 0 else x0 - bar_len
        color = _POS if v >= 0 else _NEG
        parts.append(
            f"<text x='{label_w - 8}' y='{y + 15}' text-anchor='end' {_FONT} "
            f"font-size='12' fill='{_TEXT}'>{_escape(str(name))}</text>"
        )
        parts.append(
            f"<rect x='{bx:.2f}' y='{y + 3}' width='{max(bar_len, 0.5):.2f}' "
            f"height='{row_h - 8}' fill='{color}'/>"
        )
        tx = x0 + bar_len + 6 if v >= 0 else x0 - bar_len - 6
        anchor = "start" if v >= 0 else "end"
        parts.append(
            f"<text x='{tx:.2f}' y='{y + 15}' text-anchor='{anchor}' {_FONT} "
            f"font-size='11' fill='{_TEXT}'>{v:+.4f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def summary_chart(
    names,
    per_instance_phi,
    title: str = "Attribution summary",
    timestamp: bool = False,
) -> str:
    """Strip plot of per-instance attributions per feature plus mean marker.

    Rows are ordered by decreasing mean |phi|. Point offsets within a row
    are a deterministic function of the values, not a random jitter.
    """
    names = list(names)
    phis = np.asarray(per_instance_phi, dtype=np.float64)
    if phis.ndim != 2 or phis.shape[1] != len(names) or not names:
        raise ValueError("per_instance_phi must be (n_instances, n_features)")

    order = rank_by_magnitude(np.abs(phis).mean(axis=0))

    row_h = 26
    top = 44
    label_w = 150
    height = top + row_h * len(names) + 30
    span = max(float(np.max(np.abs(phis))), 1e-12)
    plot_w = _WIDTH - label_w - 40
    x0 = label_w + plot_w / 2.0
    scale = (plot_w / 2.0) / span

    parts = _header(height, title, timestamp)
    parts.append(
        f"<line x1='{x0}' y1='{top - 8}' x2='{x0}' y2='{top + row_h * len(names)}' "
        f"stroke='{_GRID}' stroke-width='1'/>"
    )
    for rank, j in enumerate(order):
        y = top + rank * row_h + row_h / 2.0
        parts.append(
            f"<text x='{label_w - 8}' y='{y + 4:.2f}' text-anchor='end' {_FONT} "
            f"font-size='12' fill='{_TEXT}'>{_escape(str(names[j]))}</text>"
        )
        col = phis[:, j]
        # Stack repeated values vertically in observation order so ties stay
        # visible; offset cycles through a fixed comb.
        offsets = (np.arange(col.size) % 7 - 3) * 2.0
        for v, dy in zip(col, offsets):
            cx = x0 + v * scale
            color = _POS if v >= 0 else _NEG
            parts.append(
                f"<circle cx='{cx:.2f}' cy='{y + dy:.2f}' r='2.4' fill='{color}' "
                f"fill-opacity='0.55'/>"
            )
        mx = x0 + col.mean() * scale
        parts.append(
            f"<rect x='{mx - 1.2:.2f}' y='{y - 9:.2f}' width='2.4' height='18' "
            f"fill='{_TEXT}'/>"
        )
    parts.append(
        f"<text x='{x0}' y='{height - 8}' text-anchor='middle' {_FONT} "
        f"font-size='11' fill='{_TEXT}'>phi (negative "
        f"&#8592; 0 &#8594; positive), span {_fmt(span)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
