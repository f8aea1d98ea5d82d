"""Self-contained HTML observability report (``sdvbs report``).

Renders one suite result — occupancy stacks, a roofline scatter from the
v4 work-accounting metrics, the instrumented-vs-sampled agreement
table, the slowest trace spans and the run manifest — into a single HTML file
with **no external references**: styles are inlined, charts are CSS divs
and inline SVG, there is no JavaScript and no network fetch, so the file
opens offline and archives alongside the JSON export it was built from.

Layout and color follow a small design system embedded as CSS custom
properties (light and dark mode both derive from the same tokens, via
``prefers-color-scheme`` with a ``data-theme`` override hook):

* categorical kernel colors are assigned per benchmark in a fixed slot
  order and follow the kernel, never its rank;
* the ``NonKernelWork`` residual always wears the muted ink, not a
  categorical hue;
* text wears text tokens — series color appears only on marks and
  legend chips;
* stacked occupancy segments are separated by a 2px surface gap, and
  hover tooltips ride on native ``title`` elements (no script needed).
"""

from __future__ import annotations

import html
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .flamediff import ProfileDiff
from .sampling import cross_check
from .tracing import CATEGORY_KERNEL, TraceSpan
from .types import NON_KERNEL_WORK, SuiteResult

#: Fixed categorical slot order (light mode), assigned per benchmark.
_CATEGORICAL_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                      "#e87ba4", "#008300", "#4a3aa7", "#e34948")
#: The same slots re-stepped for the dark surface.
_CATEGORICAL_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                     "#d55181", "#008300", "#9085e9", "#e66767")

#: Section ids the golden-structure test asserts on.
SECTION_IDS = ("manifest", "occupancy", "roofline", "agreement",
               "flamediff", "trace")


def _css() -> str:
    slots_light = "\n".join(
        f"  --c{i}: {color};" for i, color in enumerate(_CATEGORICAL_LIGHT)
    )
    slots_dark = "\n".join(
        f"  --c{i}: {color};" for i, color in enumerate(_CATEGORICAL_DARK)
    )
    dark_tokens = f"""\
  --surface: #1a1a19;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --muted: #898781;
  --gridline: #2c2c2a;
{slots_dark}"""
    return f"""\
:root {{
  --surface: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --gridline: #e1e0d9;
{slots_light}
}}
@media (prefers-color-scheme: dark) {{
  :root {{
{dark_tokens}
  }}
}}
[data-theme="dark"] {{
{dark_tokens}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0 auto; padding: 24px; max-width: 960px;
  background: var(--surface); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif;
}}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
h2 {{ font-size: 16px; margin: 32px 0 8px; }}
h3 {{ font-size: 13px; margin: 16px 0 4px; color: var(--text-secondary); }}
p.note {{ color: var(--text-secondary); margin: 4px 0 12px; }}
table {{ border-collapse: collapse; margin: 8px 0; }}
th, td {{
  text-align: left; padding: 4px 12px 4px 0;
  border-bottom: 1px solid var(--gridline);
}}
th {{ color: var(--text-secondary); font-weight: 600; }}
td.num, th.num {{ text-align: right; }}
.stack {{
  display: flex; gap: 2px; height: 22px; margin: 4px 0 8px;
  max-width: 720px;
}}
.stack .seg {{ border-radius: 4px; min-width: 2px; }}
.rowlabel {{ color: var(--text-secondary); font-size: 12px; margin-top: 10px; }}
.legend {{ display: flex; flex-wrap: wrap; gap: 4px 16px; margin: 4px 0 8px; }}
.legend .chip {{
  display: inline-flex; align-items: center; gap: 6px;
  color: var(--text-secondary); font-size: 12px;
}}
.legend .swatch {{
  width: 10px; height: 10px; border-radius: 3px; display: inline-block;
}}
.verdict-diverges {{ color: var(--c7); font-weight: 600; }}
td.delta-pos {{ color: var(--c7); }}
td.delta-neg {{ color: var(--c0); }}
.diffbar {{
  display: flex; height: 10px; width: 160px; align-items: stretch;
}}
.diffbar .half {{ position: relative; width: 50%; }}
.diffbar .fill-pos {{
  position: absolute; left: 0; height: 100%; border-radius: 0 3px 3px 0;
  background: var(--c7);
}}
.diffbar .fill-neg {{
  position: absolute; right: 0; height: 100%; border-radius: 3px 0 0 3px;
  background: var(--c0);
}}
svg .axisline {{ stroke: var(--gridline); stroke-width: 1; }}
svg .grid {{ stroke: var(--gridline); stroke-width: 0.5; }}
svg .pt {{ fill: var(--c0); }}
svg .pt circle {{ stroke: var(--surface); stroke-width: 2; }}
svg text {{ fill: var(--text-secondary); font: 11px system-ui, sans-serif; }}
svg text.ptlabel {{ fill: var(--text-primary); }}
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _flatten_manifest(manifest: Mapping[str, object],
                      prefix: str = "") -> List[Tuple[str, str]]:
    """Depth-one flattening of the manifest into displayable rows."""
    rows: List[Tuple[str, str]] = []
    for key in sorted(manifest):
        value = manifest[key]
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            rows.extend(_flatten_manifest(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            rows.append((name, " ".join(str(v) for v in value)))
        else:
            rows.append((name, str(value)))
    return rows


def _manifest_section(manifest: Optional[Mapping[str, object]]) -> str:
    parts = ['<section id="manifest">', "<h2>Run manifest</h2>"]
    if not manifest:
        parts.append('<p class="note">The export carried no manifest.</p>')
    else:
        parts.append("<table><thead><tr><th>Key</th><th>Value</th></tr>"
                     "</thead><tbody>")
        for key, value in _flatten_manifest(manifest):
            parts.append(
                f"<tr><td>{_esc(key)}</td><td>{_esc(value)}</td></tr>")
        parts.append("</tbody></table>")
    parts.append("</section>")
    return "\n".join(parts)


def _kernel_slots(kernels: Sequence[str]) -> Dict[str, str]:
    """Per-benchmark slot assignment: fixed order, never cycled.

    Kernels beyond the 8 categorical slots fold into the muted ink
    (the "Other" rule); ``NonKernelWork`` always wears muted.
    """
    slots: Dict[str, str] = {}
    index = 0
    for kernel in kernels:
        if kernel == NON_KERNEL_WORK or index >= len(_CATEGORICAL_LIGHT):
            slots[kernel] = "var(--muted)"
        else:
            slots[kernel] = f"var(--c{index})"
            index += 1
    return slots


def _occupancy_section(result: SuiteResult) -> str:
    parts = ['<section id="occupancy">', "<h2>Kernel occupancy</h2>",
             '<p class="note">Share of measured wall time attributed to '
             "each instrumented kernel (Figure 3 view); the residual is "
             "uninstrumented glue.</p>"]
    by_benchmark: Dict[str, List] = {}
    for run in result.runs:
        by_benchmark.setdefault(run.benchmark, []).append(run)
    if not by_benchmark:
        parts.append('<p class="note">No runs in this export.</p>')
    for benchmark, runs in by_benchmark.items():
        kernel_order: List[str] = []
        for run in runs:
            for kernel in run.occupancy():
                if kernel != NON_KERNEL_WORK and kernel not in kernel_order:
                    kernel_order.append(kernel)
        kernel_order.append(NON_KERNEL_WORK)
        slots = _kernel_slots(kernel_order)
        parts.append(f"<h3>{_esc(benchmark)}</h3>")
        parts.append('<div class="legend">')
        for kernel in kernel_order:
            parts.append(
                f'<span class="chip"><span class="swatch" '
                f'style="background:{slots[kernel]}"></span>'
                f"{_esc(kernel)}</span>")
        parts.append("</div>")
        for run in runs:
            shares = run.occupancy()
            label = f"{run.size.name} variant {run.variant}"
            parts.append(f'<div class="rowlabel">{_esc(label)} &mdash; '
                         f"{run.total_seconds * 1000:.1f} ms</div>")
            parts.append('<div class="stack">')
            for kernel in kernel_order:
                share = shares.get(kernel, 0.0)
                if share <= 0:
                    continue
                tip = f"{kernel}: {share:.1f}%"
                parts.append(
                    f'<div class="seg" style="flex:{share:.3f};'
                    f'background:{slots[kernel]}" '
                    f'title="{_esc(tip)}"></div>')
            parts.append("</div>")
    parts.append("</section>")
    return "\n".join(parts)


def _log_ticks(lo: float, hi: float) -> List[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def _fmt_tick(value: float) -> str:
    if value >= 1:
        return f"{value:g}"
    return f"{value:.10f}".rstrip("0")


def _roofline_section(result: SuiteResult) -> str:
    """AI-vs-achieved-GFLOP/s scatter from the per-run metrics blocks."""
    points: List[Tuple[float, float, str]] = []
    for run in result.runs:
        if not run.metrics:
            continue
        kernels = run.metrics.get("kernels", {})
        if not isinstance(kernels, Mapping):
            continue
        for kernel in sorted(kernels):
            entry = kernels[kernel]
            ai = float(entry.get("arithmetic_intensity", 0.0))
            rate = float(entry.get("gflops_per_s", 0.0))
            if ai <= 0 or rate <= 0:
                continue
            points.append((ai, rate,
                           f"{kernel} ({run.benchmark}@{run.size.name})"))
    parts = ['<section id="roofline">',
             "<h2>Roofline scatter</h2>",
             '<p class="note">Analytic arithmetic intensity against '
             "achieved compute rate for every dispatched kernel with a "
             "work model (log/log). Points to the left are "
             "traffic-bound; higher is faster.</p>"]
    if not points:
        parts.append('<p class="note">No work-accounting metrics in '
                     "this export (pre-v4 payload or no registered "
                     "work models ran).</p>")
        parts.append("</section>")
        return "\n".join(parts)

    width, height = 720, 360
    margin_l, margin_r, margin_t, margin_b = 56, 16, 12, 40
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_ticks = _log_ticks(min(xs), max(xs))
    y_ticks = _log_ticks(min(ys), max(ys))
    x_lo, x_hi = math.log10(x_ticks[0]), math.log10(x_ticks[-1])
    y_lo, y_hi = math.log10(y_ticks[0]), math.log10(y_ticks[-1])
    x_hi = x_hi if x_hi > x_lo else x_lo + 1
    y_hi = y_hi if y_hi > y_lo else y_lo + 1
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def sx(value: float) -> float:
        return margin_l + (math.log10(value) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return (height - margin_b
                - (math.log10(value) - y_lo) / (y_hi - y_lo) * plot_h)

    svg = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
           f'height="{height}" role="img" '
           'aria-label="Roofline scatter">']
    for tick in x_ticks:
        x = sx(tick)
        svg.append(f'<line class="grid" x1="{x:.1f}" y1="{margin_t}" '
                   f'x2="{x:.1f}" y2="{height - margin_b}" />')
        svg.append(f'<text x="{x:.1f}" y="{height - margin_b + 16}" '
                   f'text-anchor="middle">{_fmt_tick(tick)}</text>')
    for tick in y_ticks:
        y = sy(tick)
        svg.append(f'<line class="grid" x1="{margin_l}" y1="{y:.1f}" '
                   f'x2="{width - margin_r}" y2="{y:.1f}" />')
        svg.append(f'<text x="{margin_l - 6}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{_fmt_tick(tick)}</text>')
    svg.append(f'<line class="axisline" x1="{margin_l}" '
               f'y1="{height - margin_b}" x2="{width - margin_r}" '
               f'y2="{height - margin_b}" />')
    svg.append(f'<line class="axisline" x1="{margin_l}" y1="{margin_t}" '
               f'x2="{margin_l}" y2="{height - margin_b}" />')
    svg.append(f'<text x="{margin_l + plot_w / 2:.0f}" '
               f'y="{height - 6}" text-anchor="middle">'
               "arithmetic intensity (flop/byte)</text>")
    svg.append(f'<text x="14" y="{margin_t + plot_h / 2:.0f}" '
               f'text-anchor="middle" transform="rotate(-90 14 '
               f'{margin_t + plot_h / 2:.0f})">achieved GFLOP/s</text>')
    # Direct-label the fastest points only (selective labels).
    labeled = {id(point)
               for point in sorted(points, key=lambda p: -p[1])[:6]}
    for point in points:
        ai, rate, label = point
        x, y = sx(ai), sy(rate)
        tip = f"{label}: {ai:.3g} flop/byte, {rate:.3g} GFLOP/s"
        svg.append(f'<g class="pt"><circle cx="{x:.1f}" cy="{y:.1f}" '
                   f'r="5"><title>{_esc(tip)}</title></circle></g>')
        if id(point) in labeled:
            svg.append(f'<text class="ptlabel" x="{x + 8:.1f}" '
                       f'y="{y - 6:.1f}">{_esc(label)}</text>')
    svg.append("</svg>")
    parts.extend(svg)
    parts.append("</section>")
    return "\n".join(parts)


def _agreement_section(result: SuiteResult, tolerance: float,
                       min_share: float) -> str:
    parts = ['<section id="agreement">',
             "<h2>Sampled vs instrumented agreement</h2>",
             '<p class="note">Per-kernel runtime shares measured two '
             "independent ways: instrumented timers around each kernel "
             "and a statistical stack sampler. Rows holding at least "
             f"{min_share:g}% on either side must agree within "
             f"&plusmn;{tolerance:g} points.</p>"]
    any_sampling = False
    for run in result.runs:
        if not run.sampling:
            continue
        any_sampling = True
        sampled = {k: float(v)
                   for k, v in run.sampling.get("shares", {}).items()}
        observable = list(run.sampling.get("observable") or [])
        samples = int(run.sampling.get("samples", 0))
        check = cross_check(run.occupancy(), sampled, observable,
                            tolerance=tolerance, min_share=min_share,
                            samples=samples)
        failures = {id(r) for r in check.failures()}
        gated = {id(r) for r in check.gated_rows()}
        parts.append(f"<h3>{_esc(run.benchmark)} @ {_esc(run.size.name)} "
                     f"&mdash; {samples} samples, "
                     f"{'PASS' if check.ok else 'FAIL'}</h3>")
        truncated = int(run.sampling.get("stacks_truncated", 0))
        if truncated > 0:
            parts.append(
                f'<p class="note">&#9888; {truncated} distinct stack(s) '
                "were dropped when this profile was exported "
                "(<code>max_stacks</code> cap); per-kernel shares are "
                "exact, but rare leaf stacks are missing from the "
                "folded profile.</p>")
        parts.append("<table><thead><tr><th>Kernel</th>"
                     '<th class="num">Instrumented %</th>'
                     '<th class="num">Sampled %</th>'
                     '<th class="num">&Delta;</th><th>Verdict</th>'
                     "</tr></thead><tbody>")
        for row in check.rows:
            if row.sampled is None:
                sampled_cell, delta_cell, verdict = "&ndash;", "&ndash;", \
                    "unobservable"
                cls = ""
            else:
                sampled_cell = f"{row.sampled:.1f}"
                delta_cell = f"{row.delta:+.1f}"
                if id(row) in failures:
                    verdict, cls = "DIVERGES", ' class="verdict-diverges"'
                elif id(row) in gated:
                    verdict, cls = "agree", ""
                else:
                    verdict, cls = "minor", ""
            parts.append(
                f"<tr><td>{_esc(row.kernel)}</td>"
                f'<td class="num">{row.instrumented:.1f}</td>'
                f'<td class="num">{sampled_cell}</td>'
                f'<td class="num">{delta_cell}</td>'
                f"<td{cls}>{verdict}</td></tr>")
        parts.append("</tbody></table>")
        top = run.sampling.get("non_kernel_top") or []
        if top:
            parts.append("<h3>Top NonKernelWork functions (sampled)</h3>")
            parts.append("<table><thead><tr><th>Function</th>"
                         '<th class="num">Sampled ms</th></tr></thead>'
                         "<tbody>")
            for label, seconds in top:
                parts.append(f"<tr><td>{_esc(label)}</td>"
                             f'<td class="num">'
                             f"{float(seconds) * 1000:.2f}</td></tr>")
            parts.append("</tbody></table>")
    if not any_sampling:
        parts.append('<p class="note">No sampling profiles in this '
                     "export (pre-v5 payload or no sampler attached).</p>")
    parts.append("</section>")
    return "\n".join(parts)


def _diff_bar(delta: float, scale: float) -> str:
    """A diverging red/blue bar: right of center grew, left shrank."""
    if scale <= 0.0 or delta == 0.0:
        return '<div class="diffbar"></div>'
    width = min(100.0, 100.0 * abs(delta) / scale)
    if delta > 0:
        return ('<div class="diffbar"><div class="half"></div>'
                f'<div class="half"><div class="fill-pos" '
                f'style="width:{width:.1f}%"></div></div></div>')
    return ('<div class="diffbar"><div class="half">'
            f'<div class="fill-neg" style="width:{width:.1f}%"></div>'
            '</div><div class="half"></div></div>')


def _delta_cell(delta: float, unit: str = "s") -> str:
    """A signed delta table cell wearing red (grew) or blue (shrank)."""
    cls = ("delta-pos" if delta > 0
           else "delta-neg" if delta < 0 else "")
    attr = f' class="num {cls}"' if cls else ' class="num"'
    return f"<td{attr}>{delta:+.4f}{unit}</td>"


def _flamediff_section(diff: Optional[ProfileDiff], top: int = 10) -> str:
    """Red/blue differential flamegraph summary (candidate - baseline)."""
    parts = ['<section id="flamediff">',
             "<h2>Differential flamegraph</h2>"]
    if diff is None:
        parts.append('<p class="note">No profile diff attached to this '
                     "report (render one with <code>sdvbs history diff "
                     "&hellip; --html</code>).</p>")
        parts.append("</section>")
        return "\n".join(parts)
    parts.append(
        '<p class="note">Sampled time per kernel and frame, '
        f"<strong>{_esc(diff.baseline_label)}</strong> &rarr; "
        f"<strong>{_esc(diff.candidate_label)}</strong>: "
        f"{diff.baseline_seconds:.4f}s &rarr; "
        f"{diff.candidate_seconds:.4f}s "
        f"({diff.delta_seconds:+.4f}s). "
        '<span style="color:var(--c7)">Red grew</span>, '
        '<span style="color:var(--c0)">blue shrank</span>.</p>')
    kernel_rows = diff.top_kernels(top)
    frame_rows = diff.top_frames(top)
    scale = max(
        [abs(k.delta) for k in kernel_rows]
        + [abs(f.self_delta) for f in frame_rows] + [0.0])
    if kernel_rows:
        parts.append("<h3>Kernels</h3>")
        parts.append("<table><thead><tr><th>Kernel</th>"
                     '<th class="num">Before s</th>'
                     '<th class="num">After s</th>'
                     '<th class="num">&Delta;</th><th></th>'
                     "</tr></thead><tbody>")
        for kernel in kernel_rows:
            parts.append(
                f"<tr><td>{_esc(kernel.kernel)}</td>"
                f'<td class="num">{kernel.before:.4f}</td>'
                f'<td class="num">{kernel.after:.4f}</td>'
                + _delta_cell(kernel.delta)
                + f"<td>{_diff_bar(kernel.delta, scale)}</td></tr>")
        parts.append("</tbody></table>")
    if frame_rows:
        parts.append("<h3>Frames (self time)</h3>")
        parts.append("<table><thead><tr><th>Frame</th>"
                     '<th class="num">Before s</th>'
                     '<th class="num">After s</th>'
                     '<th class="num">&Delta;</th><th></th>'
                     "</tr></thead><tbody>")
        for frame in frame_rows:
            parts.append(
                f"<tr><td>{_esc(frame.frame)}</td>"
                f'<td class="num">{frame.self_before:.4f}</td>'
                f'<td class="num">{frame.self_after:.4f}</td>'
                + _delta_cell(frame.self_delta)
                + f"<td>{_diff_bar(frame.self_delta, scale)}</td></tr>")
        parts.append("</tbody></table>")
    if not kernel_rows and not frame_rows:
        parts.append('<p class="note">The two profiles are '
                     "identical.</p>")
    parts.append("</section>")
    return "\n".join(parts)


def _trace_section(spans: Optional[Iterable[TraceSpan]],
                   limit: int) -> str:
    parts = ['<section id="trace">',
             f"<h2>Top {limit} slowest kernel invocations</h2>"]
    kernel_spans = [s for s in (spans or [])
                    if s.category == CATEGORY_KERNEL]
    if not kernel_spans:
        parts.append('<p class="note">No trace recorded with this '
                     "report.</p>")
        parts.append("</section>")
        return "\n".join(parts)
    ranked = sorted(kernel_spans, key=lambda s: s.duration,
                    reverse=True)[:max(0, limit)]
    parts.append("<table><thead><tr><th>#</th><th>Kernel</th>"
                 '<th>Context</th><th class="num">Start ms</th>'
                 '<th class="num">Duration ms</th>'
                 '<th class="num">Self ms</th></tr></thead><tbody>')
    for rank, span in enumerate(ranked, start=1):
        attrs = span.attrs
        context = " ".join(
            str(attrs[key]) for key in ("benchmark", "size", "repeat")
            if key in attrs)
        parts.append(
            f"<tr><td>{rank}</td><td>{_esc(span.name)}</td>"
            f"<td>{_esc(context or '-')}</td>"
            f'<td class="num">{span.start * 1000:.2f}</td>'
            f'<td class="num">{span.duration * 1000:.3f}</td>'
            f'<td class="num">{span.self_duration * 1000:.3f}</td></tr>')
    parts.append("</tbody></table>")
    parts.append("</section>")
    return "\n".join(parts)


def render_diff_html(diff: ProfileDiff,
                     title: str = "SD-VBS repro differential "
                     "flamegraph") -> str:
    """A standalone one-section page for ``sdvbs history diff --html``.

    Same design tokens and offline guarantees as the full report —
    just the red/blue differential section, for when there is no
    suite export to wrap it in.
    """
    body = "\n".join([
        f"<h1>{_esc(title)}</h1>",
        '<p class="note">Generated by the sdvbs CLI; inline markup '
        "with no external references.</p>",
        _flamediff_section(diff),
    ])
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>\n{_css()}</style>\n</head>\n<body>\n{body}\n"
        "</body>\n</html>\n"
    )


def render_html_report(
    result: SuiteResult,
    spans: Optional[Iterable[TraceSpan]] = None,
    title: str = "SD-VBS repro observability report",
    tolerance: float = 5.0,
    min_share: float = 10.0,
    top_spans: int = 10,
    diff: Optional[ProfileDiff] = None,
) -> str:
    """Render a suite result into one self-contained HTML document.

    ``spans`` optionally supplies the recorded trace behind the
    slowest-invocations table (absent for rehydrated exports, which do
    not carry event-level traces).  ``tolerance``/``min_share``
    parameterize the agreement gate exactly like
    :func:`~repro.core.sampling.cross_check`.  ``diff`` optionally
    attaches a differential flamegraph (red grew / blue shrank)
    between two sampled profiles; without one the section renders a
    pointer to ``sdvbs history diff``.

    The output references no external resource of any kind — no
    scripts, fonts, images or stylesheet links — so it renders
    identically offline and decades from now.
    """
    body = "\n".join([
        f"<h1>{_esc(title)}</h1>",
        '<p class="note">Generated by the sdvbs CLI; every chart below '
        "is inline markup with no external references.</p>",
        _manifest_section(result.manifest),
        _occupancy_section(result),
        _roofline_section(result),
        _agreement_section(result, tolerance, min_share),
        _flamediff_section(diff),
        _trace_section(spans, top_spans),
    ])
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>\n{_css()}</style>\n</head>\n<body>\n{body}\n"
        "</body>\n</html>\n"
    )
