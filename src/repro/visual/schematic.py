"""Scene builders for circuit schematics.

These helpers lay out classic schematic idioms — resistor ladders, op-amp
stages, MOS transistor stages, logic-gate networks — as declarative scenes
(see :mod:`repro.visual.scene`).  Geometry is deliberately simple: the goal
is a raster that carries the same information a textbook figure would
(component symbols, values, node labels), not publication-quality art.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.visual.scene import Scene


def _resistor(x: int, y: int, horizontal: bool = True, length: int = 40) -> Scene:
    """A zig-zag resistor symbol starting at ``(x, y)``."""
    scene: Scene = []
    teeth = 6
    amplitude = 6
    points: List[Tuple[int, int]] = [(x, y)]
    step = length / (teeth + 1)
    for i in range(1, teeth + 1):
        offset = amplitude if i % 2 else -amplitude
        if horizontal:
            points.append((int(x + i * step), y + offset))
        else:
            points.append((x + offset, int(y + i * step)))
    if horizontal:
        points.append((x + length, y))
    else:
        points.append((x, y + length))
    scene.append({"op": "polyline", "points": [list(p) for p in points]})
    return scene


def _ground(x: int, y: int) -> Scene:
    return [
        {"op": "line", "p0": [x, y], "p1": [x, y + 8]},
        {"op": "line", "p0": [x - 10, y + 8], "p1": [x + 10, y + 8]},
        {"op": "line", "p0": [x - 6, y + 12], "p1": [x + 6, y + 12]},
        {"op": "line", "p0": [x - 2, y + 16], "p1": [x + 2, y + 16]},
    ]


def _source(x: int, y: int, label: str) -> Scene:
    return [
        {"op": "circle", "center": [x, y], "radius": 12},
        {"op": "text_centered", "xy": [x, y], "s": label},
    ]


def _opamp(x: int, y: int, size: int = 48) -> Scene:
    """Op-amp triangle with inputs on the left, output at the right apex."""
    half = size // 2
    return [
        {"op": "polyline", "points": [
            [x, y - half], [x, y + half], [x + size, y], [x, y - half]]},
        {"op": "text", "xy": [x + 4, y - half + 8], "s": "-"},
        {"op": "text", "xy": [x + 4, y + half - 14], "s": "+"},
    ]


def _nmos(x: int, y: int, label: str = "") -> Scene:
    """Simplified NMOS symbol: gate at left, drain top, source bottom."""
    scene: Scene = [
        {"op": "line", "p0": [x - 18, y], "p1": [x - 6, y]},           # gate lead
        {"op": "line", "p0": [x - 6, y - 10], "p1": [x - 6, y + 10],
         "thickness": 2},                                              # gate plate
        {"op": "line", "p0": [x, y - 12], "p1": [x, y + 12],
         "thickness": 2},                                              # channel
        {"op": "line", "p0": [x, y - 12], "p1": [x + 14, y - 12]},     # drain arm
        {"op": "line", "p0": [x + 14, y - 12], "p1": [x + 14, y - 22]},
        {"op": "line", "p0": [x, y + 12], "p1": [x + 14, y + 12]},     # source arm
        {"op": "line", "p0": [x + 14, y + 12], "p1": [x + 14, y + 22]},
        {"op": "arrow", "p0": [x + 10, y + 12], "p1": [x + 2, y + 12],
         "head": 4},
    ]
    if label:
        scene.append({"op": "text", "xy": [x - 18, y - 24], "s": label})
    return scene


def resistor_network_scene(
    resistors: Sequence[Tuple[str, str]],
    source_label: str = "VS",
) -> Scene:
    """A series/parallel resistor network drawn as a ladder.

    ``resistors`` is a list of ``(name, value_text)`` pairs.  The first
    resistor is drawn in series with the source; subsequent resistors
    alternate series (horizontal, along the top rail) and shunt (vertical,
    to the bottom rail) positions — the classic ladder topology used in the
    paper's MathVista-style example (Fig. 3).
    """
    scene: Scene = []
    top_y = 90
    bottom_y = 250
    x = 70
    scene += _source(x, (top_y + bottom_y) // 2, source_label)
    scene.append({"op": "line", "p0": [x, top_y + 68],
                  "p1": [x, top_y], "thickness": 1})
    scene.append({"op": "line", "p0": [x, bottom_y - 68],
                  "p1": [x, bottom_y]})
    x += 20
    scene.append({"op": "line", "p0": [x - 20, top_y], "p1": [x, top_y]})
    scene.append({"op": "line", "p0": [x - 20, bottom_y],
                  "p1": [x + 360, bottom_y]})
    for index, (name, value) in enumerate(resistors):
        series = index % 2 == 0
        if series:
            scene += _resistor(x, top_y, horizontal=True)
            scene.append({"op": "text", "xy": [x + 6, top_y - 22],
                          "s": f"{name}={value}"})
            x += 40
        else:
            scene.append({"op": "line", "p0": [x, top_y], "p1": [x + 24, top_y]})
            x += 24
            scene += _resistor(x, top_y, horizontal=False, length=bottom_y - top_y)
            scene.append({"op": "text", "xy": [x + 12, (top_y + bottom_y) // 2],
                          "s": f"{name}={value}"})
    scene.append({"op": "line", "p0": [x, top_y], "p1": [x + 40, top_y]})
    scene += _ground(x + 40, bottom_y)
    return scene


def opamp_stage_scene(
    topology: str,
    r_in_label: str,
    r_f_label: str,
) -> Scene:
    """An inverting or non-inverting op-amp stage with labelled resistors."""
    if topology not in ("inverting", "noninverting"):
        raise ValueError(f"unknown op-amp topology: {topology}")
    scene: Scene = []
    ax, ay = 230, 180
    scene += _opamp(ax, ay)
    # input resistor into the inverting pin
    scene += _resistor(90, ay - 12, horizontal=True, length=60)
    scene.append({"op": "line", "p0": [150, ay - 12], "p1": [ax, ay - 12]})
    scene.append({"op": "text", "xy": [92, ay - 36], "s": r_in_label})
    # feedback resistor over the top
    scene.append({"op": "line", "p0": [ax - 40, ay - 12], "p1": [ax - 40, ay - 70]})
    scene += _resistor(ax - 40, ay - 70, horizontal=True, length=120)
    scene.append({"op": "line", "p0": [ax + 80, ay - 70], "p1": [ax + 80, ay]})
    scene.append({"op": "line", "p0": [ax + 48, ay], "p1": [ax + 110, ay]})
    scene.append({"op": "text", "xy": [ax - 30, ay - 94], "s": r_f_label})
    scene.append({"op": "text", "xy": [ax + 96, ay - 16], "s": "VOUT"})
    if topology == "inverting":
        scene += _ground(ax - 16, ay + 30)
        scene.append({"op": "line", "p0": [ax, ay + 12], "p1": [ax - 16, ay + 12]})
        scene.append({"op": "line", "p0": [ax - 16, ay + 12], "p1": [ax - 16, ay + 30]})
        scene.append({"op": "text", "xy": [54, ay - 18], "s": "VIN"})
    else:
        scene.append({"op": "text", "xy": [ax - 60, ay + 20], "s": "VIN"})
        scene.append({"op": "line", "p0": [ax - 30, ay + 12], "p1": [ax, ay + 12]})
    return scene


def common_source_scene(
    gm_label: str,
    load_label: str,
    with_degeneration: bool = False,
    rs_label: str = "RS",
) -> Scene:
    """A common-source MOS amplifier with a resistive load."""
    scene: Scene = []
    mx, my = 250, 210
    scene += _nmos(mx, my, "M1")
    scene.append({"op": "text", "xy": [mx + 24, my - 6], "s": gm_label})
    # drain load up to VDD
    scene.append({"op": "line", "p0": [mx + 14, my - 22], "p1": [mx + 14, my - 50]})
    scene += _resistor(mx + 14, my - 110, horizontal=False, length=60)
    scene.append({"op": "text", "xy": [mx + 30, my - 90], "s": load_label})
    scene.append({"op": "line", "p0": [mx + 14, my - 110], "p1": [mx + 14, my - 130]})
    scene.append({"op": "text", "xy": [mx + 2, my - 146], "s": "VDD"})
    scene.append({"op": "text", "xy": [mx + 34, my - 40], "s": "VOUT"})
    scene.append({"op": "line", "p0": [mx + 14, my - 36], "p1": [mx + 50, my - 36]})
    # gate drive
    scene.append({"op": "text", "xy": [mx - 70, my - 6], "s": "VIN"})
    scene.append({"op": "line", "p0": [mx - 40, my], "p1": [mx - 18, my]})
    if with_degeneration:
        scene.append({"op": "line", "p0": [mx + 14, my + 22], "p1": [mx + 14, my + 40]})
        scene += _resistor(mx + 14, my + 40, horizontal=False, length=50)
        scene.append({"op": "text", "xy": [mx + 30, my + 60], "s": rs_label})
        scene += _ground(mx + 14, my + 96)
    else:
        scene += _ground(mx + 14, my + 26)
    return scene


def differential_pair_scene(tail_label: str = "ISS") -> Scene:
    """A five-transistor differential pair with a tail current source."""
    scene: Scene = []
    lx, rx, y = 190, 330, 190
    scene += _nmos(lx, y, "M1")
    scene += _nmos(rx, y, "M2")
    # shared source node and tail source
    mid = (lx + rx) // 2 + 14
    scene.append({"op": "line", "p0": [lx + 14, y + 22], "p1": [lx + 14, y + 40]})
    scene.append({"op": "line", "p0": [rx + 14, y + 22], "p1": [rx + 14, y + 40]})
    scene.append({"op": "line", "p0": [lx + 14, y + 40], "p1": [rx + 14, y + 40]})
    scene.append({"op": "circle", "center": [mid, y + 64], "radius": 12})
    scene.append({"op": "arrow", "p0": [mid, y + 56], "p1": [mid, y + 72],
                  "head": 4})
    scene.append({"op": "text", "xy": [mid + 18, y + 58], "s": tail_label})
    scene.append({"op": "line", "p0": [mid, y + 40], "p1": [mid, y + 52]})
    scene += _ground(mid, y + 78)
    # loads
    for x in (lx, rx):
        scene.append({"op": "line", "p0": [x + 14, y - 22], "p1": [x + 14, y - 40]})
        scene += _resistor(x + 14, y - 90, horizontal=False, length=50)
        scene.append({"op": "line", "p0": [x + 14, y - 90], "p1": [x + 14, y - 104]})
    scene.append({"op": "text", "xy": [lx + 30, y - 74], "s": "RD"})
    scene.append({"op": "text", "xy": [rx + 30, y - 74], "s": "RD"})
    scene.append({"op": "line", "p0": [lx + 14, y - 104], "p1": [rx + 14, y - 104]})
    scene.append({"op": "text", "xy": [mid - 12, y - 120], "s": "VDD"})
    scene.append({"op": "text", "xy": [lx - 66, y - 6], "s": "VIN+"})
    scene.append({"op": "text", "xy": [rx - 66, y - 6], "s": "VIN-"})
    return scene


def logic_network_scene(
    gates: Sequence[Tuple[str, str, Sequence[str]]],
    output_label: str = "F",
) -> Scene:
    """A small combinational network drawn left-to-right.

    ``gates`` is a list of ``(gate_type, gate_name, input_labels)``; gates
    are placed in columns of two and the last gate drives the output.
    """
    scene: Scene = []
    x0, y0 = 90, 80
    positions: Dict[str, Tuple[int, int]] = {}
    for index, (gate_type, name, inputs) in enumerate(gates):
        col, row = divmod(index, 2)
        gx = x0 + col * 130
        gy = y0 + row * 110
        positions[name] = (gx, gy)
        scene += _gate_symbol(gate_type, gx, gy, name)
        for j, label in enumerate(inputs):
            iy = gy + 10 + j * 16
            scene.append({"op": "line", "p0": [gx - 30, iy], "p1": [gx, iy]})
            if label in positions:
                px, py = positions[label]
                scene.append({"op": "polyline", "points": [
                    [px + 64, py + 20], [gx - 30, iy]]})
            else:
                scene.append({"op": "text", "xy": [gx - 58, iy - 4], "s": label})
    last_name = gates[-1][1]
    lx, ly = positions[last_name]
    scene.append({"op": "line", "p0": [lx + 64, ly + 20], "p1": [lx + 100, ly + 20]})
    scene.append({"op": "text", "xy": [lx + 106, ly + 14], "s": output_label})
    return scene


def _gate_symbol(gate_type: str, x: int, y: int, name: str) -> Scene:
    """A rectangular IEC-style gate body labelled with its function."""
    label = {
        "AND": "&", "OR": ">1", "NOT": "1", "NAND": "&", "NOR": ">1",
        "XOR": "=1", "XNOR": "=1", "BUF": "1",
    }.get(gate_type.upper(), gate_type.upper())
    scene: Scene = [
        {"op": "rect", "xy": [x, y], "size": [56, 40]},
        {"op": "text_centered", "xy": [x + 28, y + 14], "s": label},
        {"op": "text", "xy": [x + 6, y + 44], "s": name},
    ]
    if gate_type.upper() in ("NAND", "NOR", "XNOR", "NOT"):
        scene.append({"op": "circle", "center": [x + 60, y + 20], "radius": 4})
        scene.append({"op": "line", "p0": [x + 64, y + 20], "p1": [x + 64, y + 20]})
    return scene


def flash_adc_scene(bits: int) -> Scene:
    """A flash ADC: resistor ladder plus a comparator bank and encoder."""
    scene: Scene = []
    levels = 2 ** bits - 1
    ladder_x = 110
    top, bottom = 50, 320
    scene.append({"op": "text", "xy": [ladder_x - 30, top - 18], "s": "VREF"})
    span = bottom - top
    for i in range(levels):
        y = top + int(span * i / levels)
        scene += _resistor(ladder_x, y, horizontal=False,
                           length=max(16, span // levels - 4))
    scene += _ground(ladder_x, bottom + 4)
    # comparators
    for i in range(min(levels, 7)):
        cy = top + 20 + int((span - 40) * i / max(1, min(levels, 7) - 1))
        scene += _opamp(ladder_x + 80, cy, size=32)
        scene.append({"op": "line", "p0": [ladder_x, cy - 8],
                      "p1": [ladder_x + 80, cy - 8]})
        scene.append({"op": "line", "p0": [ladder_x + 112, cy],
                      "p1": [ladder_x + 150, cy]})
    scene.append({"op": "rect", "xy": [ladder_x + 150, top + 10],
                  "size": [80, span - 20]})
    scene.append({"op": "text_centered",
                  "xy": [ladder_x + 190, (top + bottom) // 2 - 10],
                  "s": "ENC"})
    scene.append({"op": "text", "xy": [ladder_x + 240, (top + bottom) // 2 - 4],
                  "s": f"{bits}B"})
    scene.append({"op": "text", "xy": [ladder_x + 40, bottom + 26], "s": "VIN"})
    return scene


def bode_plot_scene(
    corner_decades: Sequence[float],
    slopes_db_per_dec: Sequence[float],
    start_db: float = 40.0,
) -> Scene:
    """A piecewise-linear Bode magnitude asymptote plot.

    ``corner_decades`` are the log10 corner frequencies; ``slopes_db_per_dec``
    has one more entry than corners (slope of each segment).
    """
    if len(slopes_db_per_dec) != len(corner_decades) + 1:
        raise ValueError("need one more slope than corner")
    scene: Scene = []
    x0, y0, x1, y1 = 70, 40, 460, 300
    scene.append({"op": "line", "p0": [x0, y1], "p1": [x1, y1]})  # freq axis
    scene.append({"op": "line", "p0": [x0, y0], "p1": [x0, y1]})  # dB axis
    scene.append({"op": "text", "xy": [x1 - 60, y1 + 10], "s": "LOG F HZ"})
    scene.append({"op": "text", "xy": [x0 - 58, y0 - 4], "s": "DB"})
    decades = [0.0] + list(corner_decades) + [8.0]
    px_per_dec = (x1 - x0) / 8.0
    px_per_db = 2.2
    points: List[List[float]] = []
    db = start_db
    for seg in range(len(decades) - 1):
        x_start = x0 + decades[seg] * px_per_dec
        x_end = x0 + decades[seg + 1] * px_per_dec
        points.append([x_start, y1 - (db - 0) * px_per_db - 20])
        db += slopes_db_per_dec[seg] * (decades[seg + 1] - decades[seg])
        points.append([x_end, y1 - db * px_per_db - 20])
    scene.append({"op": "polyline", "points": points, "thickness": 2})
    for corner in corner_decades:
        cx = x0 + corner * px_per_dec
        scene.append({"op": "line", "p0": [cx, y1], "p1": [cx, y1 - 6]})
        scene.append({"op": "text", "xy": [cx - 14, y1 + 10],
                      "s": f"1E{int(corner)}"})
    return scene
