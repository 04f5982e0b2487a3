"""Batch experiment front-end.

Subcommands: rotation | orbit | semiconj | hull | density.  Inputs are JSON
descriptors (map, homeo, or limit-periodic tower); outputs are JSON, CSV or
SVG with rationals serialized as "p/q" strings.  A fixed seed makes every
byte of output reproducible.

Exit codes: 0 success, 1 mathematical failure (e.g. no certified orbit),
2 usage or parse error, including JSON nested too deeply and a number
literal past the digit limit of `circlemaps.exact_pair`, which reads every
descriptor number and `--start`.
"""
from __future__ import annotations

import csv
import io
import json
import random
import sys
from fractions import Fraction
from math import factorial, gcd

import click

from . import dynamics, hull as hull_mod
from .circlemaps import PLLift, as_rational, map_from_descriptor
from .errors import SoldynError
from .induced import (
    InducedHomeo,
    LimitPeriodicHomeo,
    apply,
    homeo_from_descriptor,
    lp_from_descriptor,
)
from .plkernel import fraction
from .profinite import DEFAULT_DEPTH, embed_int
from .solenoid import SolenoidPoint, canonicalize, parse_point, sigma, sol_dist


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise click.UsageError(f"malformed JSON in {path}: {exc}")
    except RecursionError:
        raise click.UsageError(f"malformed JSON in {path}: nesting too deep")


def _load_input(path: str):
    """Sniff the descriptor kind: lp tower, induced homeo, or bare map."""
    d = _load_json(path)
    if not isinstance(d, dict):
        raise click.UsageError(f"invalid descriptor in {path}: not a JSON object")
    try:
        if "lp" in d:
            return lp_from_descriptor(d)
        if "lift" in d:
            return homeo_from_descriptor(d)
        return map_from_descriptor(d)
    except (SoldynError, KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise click.UsageError(f"invalid descriptor in {path}: {exc}")


def _emit(text: str, out: str | None) -> None:
    # An explicit file: without one click caches a wrapper per sys.stdout
    # object it sees, which keeps every in-process invocation's stream alive.
    if out is None:
        click.echo(text, nl=False, file=sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _svg_chart(title: str, xs: list[float], series: list[tuple[str, list[float]]]) -> str:
    """Small deterministic polyline chart; fixed canvas, fixed formatting."""
    width, height, margin = 640, 400, 60
    all_vals = [v for _, vals in series for v in vals]
    lo, hi = min(all_vals + [0.0]), max(all_vals + [0.0])
    if hi == lo:
        hi = lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> str:
        return f"{margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin):.2f}"

    def py(v: float) -> str:
        return f"{height - margin - (v - lo) / (hi - lo) * (height - 2 * margin):.2f}"

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, (label, vals) in enumerate(series):
        color = colors[i % len(colors)]
        pts = " ".join(f"{px(x)},{py(v)}" for x, v in zip(xs, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - margin}" y="{40 + 18 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _random_exact_point(rng: random.Random, depth: int, modulus: int) -> SolenoidPoint:
    """x = a/den with 0 <= a < den, and k in [0, modulus), modulus = depth!."""
    den = rng.randint(1, 64)
    a = rng.randrange(den)
    g = gcd(a, den)
    x = fraction(a // g, den // g)
    return SolenoidPoint._trusted(x, embed_int(rng.randrange(modulus), depth))


def _parse_start(start: str | None, depth: int) -> SolenoidPoint:
    if start is None:
        return sigma(Fraction(0), depth)
    text = start.strip()
    try:
        if text.startswith("x="):
            return parse_point(text)
        return sigma(as_rational(text), depth)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"invalid --start {start!r}: {exc}")


def _certified_pq(f: InducedHomeo, iters: int, p: int | None, q: int | None) -> tuple[int, int]:
    """Given p/q flags use them; otherwise certify from the enclosure."""
    if p is not None:
        return p, q
    if not isinstance(f.base, PLLift):
        raise click.ClickException("cannot certify p/q for an analytic map")
    enc = dynamics.rotation_report(f, iters)
    if enc.exact is None:
        raise click.ClickException(
            f"no rational rotation number certified within q = {iters}"
        )
    return enc.exact.numerator, enc.exact.denominator


def _require_depth(f: InducedHomeo, depth: int, source: str) -> int:
    """depth!, once checked: a degree-n map acts on points whose tower
    resolves n, n | depth!."""
    modulus = factorial(depth)
    if modulus % f.degree:
        raise click.UsageError(
            f"depth {depth} is too shallow for a degree-{f.degree} map: "
            f"{f.degree} does not divide {depth}! (depth set by {source})"
        )
    return modulus


def cmd_rotation(input_path: str, iters: int) -> str:
    obj = _load_input(input_path)
    if isinstance(obj, LimitPeriodicHomeo):
        raise click.UsageError("rotation expects a map or homeo descriptor")
    return _json_text(dynamics.rotation_report(obj, iters).to_report())


def cmd_orbit(
    input_path: str, depth: int, iters: int, start: str | None, p: int | None, q: int | None
) -> str:
    if (p is None) != (q is None):
        raise click.UsageError("--p and --q-return must be given together")
    obj = _load_input(input_path)
    if isinstance(obj, LimitPeriodicHomeo):
        raise click.UsageError("orbit expects a map or homeo descriptor")
    f = obj if isinstance(obj, InducedHomeo) else InducedHomeo(obj, 0)
    s = _parse_start(start, depth)
    depth = s.k.depth  # a literal start point carries its own tower depth
    _require_depth(f, depth, "--depth, or the tower of a literal --start")
    header = ["iter", "x"] + [f"r{m}" for m in range(1, depth + 1)] + ["dist_to_target"]
    if iters == 0:
        click.echo("inconclusive: iteration budget is 0", file=sys.stderr)
        return _csv_text(header, [])
    p, q = _certified_pq(f, iters, p, q)
    target = dynamics.fiber_target(f, s, p, q)
    rows = []
    cur = s
    step = Fraction(p, q)
    for i in range(iters):
        ref = canonicalize(target.x + i * step, target.k)
        d = sol_dist(cur, ref)
        rows.append([str(i), str(cur.x)] + [str(r) for r in cur.k.residues] + [str(d)])
        cur = apply(f, cur)
    return _csv_text(header, rows)


def cmd_semiconj(input_path: str, depth: int, samples: int, seed: int) -> str:
    obj = _load_input(input_path)
    if isinstance(obj, LimitPeriodicHomeo):
        raise click.UsageError("semiconj expects a map or homeo descriptor")
    if not isinstance(obj, InducedHomeo):
        obj = InducedHomeo(obj, 0)
    modulus = _require_depth(obj, depth, "--depth")
    rng = random.Random(seed)
    pts = [_random_exact_point(rng, depth, modulus) for _ in range(samples)]
    return _json_text(hull_mod.check_semiconjugacy(obj, pts).to_report())


def cmd_hull(input_path: str, iters: int) -> str:
    obj = _load_input(input_path)
    if isinstance(obj, LimitPeriodicHomeo):
        verdict = hull_mod.periodicity_classify(obj)
        return _json_text(
            {
                "classification": "limit_periodic_certified",
                "tower": list(verdict.tower),
                "bounds": [str(b) for b in verdict.bounds],
            }
        )
    if not isinstance(obj, InducedHomeo):
        obj = InducedHomeo(obj, 0)
    g = hull_mod.leaf_quotient(obj)
    enc = dynamics.rotation_report(obj, iters)
    return _json_text(
        {
            "classification": "periodic",
            "period": str(g.period),
            "displacement_sup": str(g.lift.displacement().sup_norm()),
            "g_rotation": enc.to_report(),
        }
    )


def density_table(h: LimitPeriodicHomeo) -> tuple[list, list, list]:
    """Levels, certified bounds and exact sup gaps of the truncations."""
    levels = list(range(1, h.levels + 1))
    return levels, [h.tail_from(j) for j in levels], h.sup_gaps()


def density_text(h: LimitPeriodicHomeo, levels: list, bounds: list, gaps: list, fmt: str) -> str:
    """The density table as csv, json or svg text."""
    if fmt == "svg":
        return _svg_chart(
            "certified bound vs exact sup gap",
            [float(j) for j in levels],
            [
                ("certified bound", [float(b) for b in bounds]),
                ("sup gap", [float(g) for g in gaps]),
            ],
        )
    if fmt == "json":
        return _json_text(
            {
                "levels": levels,
                "bounds": [str(b) for b in bounds],
                "gaps": [str(g) for g in gaps],
            }
        )
    rows = [
        [str(j), str(T), str(b), str(g)]
        for j, T, b, g in zip(levels, h.tower, bounds, gaps)
    ]
    return _csv_text(["level", "period", "certified_bound", "sup_gap"], rows)


def cmd_density(input_path: str, fmt: str) -> str:
    h = _load_input(input_path)
    if not isinstance(h, LimitPeriodicHomeo):
        raise click.UsageError("density expects a limit-periodic descriptor")
    return density_text(h, *density_table(h), fmt)


_input = click.option("--input", "input_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="JSON descriptor path.")
_depth = click.option("--depth", default=DEFAULT_DEPTH, show_default=True,
                      type=click.IntRange(min=1),
                      help="Profinite truncation depth M.")
_iters = click.option("--iters", "-q", "iters", default=100, show_default=True,
                      type=click.IntRange(min=1), help="Iteration budget q.")
_samples = click.option("--samples", default=100, show_default=True,
                        type=click.IntRange(min=1),
                        help="Number of sample points.")
_seed = click.option("--seed", default=0, show_default=True,
                     help="RNG seed; fixed seed gives byte-identical output.")
_out = click.option("--out", default=None, type=click.Path(dir_okay=False),
                    help="Output path (default: stdout).")


def _show_help(ctx: click.Context, param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _HelpThroughSysStdout:
    """Help output through an explicit file, for the reason given in _emit."""

    def get_help_option(self, ctx: click.Context):
        opt = super().get_help_option(ctx)
        if opt is not None:
            opt.callback = _show_help
        return opt


class _Command(_HelpThroughSysStdout, click.Command):
    def invoke(self, ctx: click.Context):
        # a library error is a mathematical failure: exit 1, never a traceback
        try:
            return super().invoke(ctx)
        except SoldynError as exc:
            raise click.ClickException(str(exc)) from exc
        except ValueError as exc:
            # str() of an integer past the interpreter's digit limit, met
            # when a result is formatted
            if "integer string conversion" not in str(exc):
                raise
            raise click.ClickException(
                f"a number in the result has more than {sys.get_int_max_str_digits()} "
                "digits, too many to print"
            ) from exc


class _Group(_HelpThroughSysStdout, click.Group):
    command_class = _Command

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        # a bare call prints the help to stderr and exits 2, as click does
        if not args and self.no_args_is_help and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), color=ctx.color, file=sys.stderr)
            ctx.exit(2)
        return super().parse_args(ctx, args)


@click.group(cls=_Group)
def main():
    """Experiments on solenoid homeomorphisms: exact arithmetic throughout."""


@main.command()
@_input
@_iters
@_out
def rotation(input_path, iters, out):
    """Rotation-number enclosure with exact certification when possible."""
    _emit(cmd_rotation(input_path, iters), out)


@main.command()
@_input
@_depth
@click.option("--iters", "-q", "iters", default=100, show_default=True,
              type=click.IntRange(min=0), help="Iteration budget q; 0 prints the header only.")
@click.option("--start", default=None,
              help='Start point: rational t (for sigma(t)) or literal "x=p/q; k=(...)", '
                   'whose residue tower sets the depth.')
@click.option("--p", "p", default=None, type=int,
              help="Return numerator p; give it together with --q-return.")
@click.option("--q-return", "q_return", default=None, type=click.IntRange(min=1),
              help="Return denominator q; give it together with --p.")
@_out
def orbit(input_path, depth, iters, start, p, q_return, out):
    """Orbit trace CSV with distance to the certified fiber-periodic target."""
    _emit(cmd_orbit(input_path, depth, iters, start, p, q_return), out)


@main.command()
@_input
@_depth
@_samples
@_seed
@_out
def semiconj(input_path, depth, samples, seed, out):
    """Check K o f = g o K exactly on random exact sample points."""
    _emit(cmd_semiconj(input_path, depth, samples, seed), out)


@main.command(name="hull")
@_input
@_iters
@_out
def hull_cmd(input_path, iters, out):
    """Hull summary: minimal period, sup norm, quotient rotation enclosure."""
    _emit(cmd_hull(input_path, iters), out)


@main.command()
@_input
@click.option("--samples", default=100, show_default=True, type=click.IntRange(min=1),
              help="Accepted and ignored: the gaps are exact.")
@click.option("--format", "fmt", default="csv", show_default=True,
              type=click.Choice(["csv", "json", "svg"]), help="Output format.")
@_out
def density(input_path, samples, fmt, out):
    """Per-level certified bound vs exact sup gap for a limit-periodic tower.

    sup_gap is the exact sup of |h - truncation|, from the finite tail of
    summands; --samples is accepted and ignored.
    """
    _emit(cmd_density(input_path, fmt), out)


if __name__ == "__main__":
    main()
