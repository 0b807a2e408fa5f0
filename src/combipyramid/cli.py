"""Command line driver: build, query, export, roadsign, validate."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import relations
from .containment import contains
from .map_core import _validate_arrays, dart_sort_key, to_dot
from .netpbm import _pgm_bytes, load_image, save_pgm
from .pyramid import Pyramid
from .segmentation import RoadsignNotFound, SegmentedImage, _label_image, roadsign_extract


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RoadsignNotFound) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="combipyramid", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("build", help="build a pyramid from a PGM/PPM image")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--max-levels", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="ask relationship questions at one level")
    p.add_argument("--pyr", required=True)
    p.add_argument("--level", default="top")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--contains", nargs=2, type=int, metavar=("A", "B"))
    mode.add_argument("--inside", nargs=2, type=int, metavar=("A", "B"))
    mode.add_argument("--meets-each", nargs=2, type=int, metavar=("A", "B"))
    mode.add_argument("--composed-of", type=int, metavar="V")
    mode.add_argument("--report", action="store_true")
    p.add_argument("--region", type=int, default=None)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("export", help="emit DOT graphs or a label image")
    p.add_argument("--pyr", required=True)
    p.add_argument("--level", default="top")
    p.add_argument("--map-dot")
    p.add_argument("--rag-dot")
    p.add_argument("--labels")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("roadsign", help="extract the symbol of a road sign image")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--background-color", default="0,0,200")
    p.add_argument("--symbol-color", default="255,255,255")
    p.add_argument("--max-levels", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_roadsign)

    p = sub.add_parser("validate", help="run the invariant suite on a pyramid file")
    p.add_argument("--pyr", required=True)
    p.set_defaults(func=_cmd_validate)
    return parser


def _load_pyramid(path: str) -> Pyramid:
    with open(path, "r", encoding="ascii") as fh:
        return Pyramid.from_json(fh.read())


def _parse_level(pyr: Pyramid, text: str) -> int:
    if text == "top":
        return pyr.top_level
    try:
        i = int(text)
    except ValueError:
        raise ValueError(f"--level must be 'top' or an integer in 0..{pyr.top_level}, got {text!r}") from None
    pyr._checked(i)
    return i


def _cmd_build(args) -> int:
    image = load_image(args.input)
    seg = SegmentedImage(image).run(args.threshold, args.max_levels)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(seg.pyramid.to_json())
    print(json.dumps({
        "levels": seg.pyramid.top_level,
        "regions": seg.region_count(),
        "out": args.out,
    }, sort_keys=True))
    return 0


def _cmd_query(args) -> int:
    if args.region is not None and not args.report:
        raise ValueError("--region applies only to --report")
    pyr = _load_pyramid(args.pyr)
    i = _parse_level(pyr, args.level)
    out: dict = {"level": i}
    if args.contains:
        a, b = args.contains
        out["contains"] = contains(pyr, i, a, b)
    elif args.inside:
        a, b = args.inside
        out["inside"] = contains(pyr, i, b, a)
    elif args.meets_each:
        a, b = args.meets_each
        segs = relations.meets_each(pyr, i, a, b)
        out["meets_exists"] = bool(segs)
        out["meets_each"] = [
            {"darts": list(s.darts), "freeman": s.cracks.freeman(), "cracks": s.cracks.to_records()}
            for s in segs
        ]
    elif args.composed_of is not None:
        out["composed_of"] = sorted(pyr.composed_of(i, args.composed_of), key=dart_sort_key)
    else:
        out = relations.relation_report(pyr, i, args.region)
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_export(args) -> int:
    pyr = _load_pyramid(args.pyr)
    i = _parse_level(pyr, args.level)
    if not (args.map_dot or args.rag_dot or args.labels):
        raise ValueError("nothing to export: pass --map-dot, --rag-dot or --labels")
    files = []  # every output is made before any file is opened
    if args.labels:
        arr, names = _label_image(pyr, i)
        if len(names) > 65536:
            raise ValueError(f"--labels: level {i} has {len(names)} regions with pixels, past a 16-bit PGM's 65536")
    if args.map_dot:
        files.append((args.map_dot, to_dot(pyr.reconstruct_level(i), name=f"level{i}").encode("ascii")))
    if args.rag_dot:
        files.append((args.rag_dot, relations.rag_to_dot(pyr, i, name=f"rag{i}").encode("ascii")))
    if args.labels:
        files.append((args.labels, _pgm_bytes(arr, min(65535, max(1, int(arr.max()))))))
        regions = {str(k): v for k, v in enumerate(names.tolist())}
        files.append((args.labels + ".json", (json.dumps({"regions": regions}, sort_keys=True) + "\n").encode("ascii")))
    _write_all(files)
    return 0


def _write_all(files: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) or create none of the files: two paths that
    name one file are refused before any is opened, every path is opened, an
    existing file untruncated, before any is written, and on an error the
    files this call created are removed. A write that fails midway, on a
    full disk say, can leave an existing file cut short."""
    seen = set()
    for path, _ in files:
        if (real := os.path.realpath(path)) in seen:
            raise ValueError(f"two outputs name one file: {path}")
        seen.add(real)
    handles, created = [], []
    try:
        try:
            for path, _ in files:
                try:
                    handles.append(open(path, "xb"))
                    created.append(path)
                except FileExistsError:
                    handles.append(open(path, "r+b"))
            for fh, (_, data) in zip(handles, files):
                fh.write(data)
                fh.truncate()
        finally:
            for fh in handles:
                fh.close()
    except OSError:
        for path in created:
            os.remove(path)
        raise


def _parse_color(text: str) -> tuple[float, ...]:
    parts = tuple(float(p) for p in text.split(","))
    if len(parts) not in (1, 3):
        raise ValueError(f"bad color {text!r}: expected 1 or 3 comma-separated values")
    return parts


def _cmd_roadsign(args) -> int:
    image = load_image(args.input)
    channels = image.shape[2]
    bg = _parse_color(args.background_color)[:channels]
    sym = _parse_color(args.symbol_color)[:channels]
    seg = SegmentedImage(image).run(args.threshold, args.max_levels)
    symbol = roadsign_extract(seg, k=args.k, background_color=bg, symbol_color=sym)
    rows = np.array(seg.pyramid.pixel_labels(seg.pyramid.top_level), dtype=np.int64)
    mask = np.where(np.isin(rows, list(symbol)), 255, 0).astype(np.uint8)
    save_pgm(args.out, mask)
    print(json.dumps({
        "symbol_regions": sorted(symbol, key=dart_sort_key),
        "symbol_pixels": int((mask > 0).sum()),
        "out": args.out,
    }, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    # loading re-checks every kernel; what is left are each level's
    # invariants, checked on its record's arrays once per shared record
    pyr = _load_pyramid(args.pyr)
    problems: list[str] = []
    for i, level in enumerate(pyr._levels):
        if not i or level is not pyr._levels[i - 1]:
            failed = _validate_arrays(level.order, level.sigma, level.alpha).failed()
        problems.extend(f"level {i}: {name}" for name in failed)
    print(json.dumps({"ok": not problems, "levels": pyr.top_level, "problems": problems}, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
