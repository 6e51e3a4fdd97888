"""A v2 frame-stream client state, written from ``docs/protocol.md``.

Independent of the service's own reference client on purpose: the
benchmark checks the wire against the documented contract, so it must
not share code with the server that produces the frames.

The state a full frame carries is ``frame_id``, ``statistics``,
``display_order`` and ``windows`` (key -> title, width, height and the
flat ``distances`` / ``item_ids`` cell arrays).  :func:`apply` folds one
``subscribe`` / ``delta`` / ``resync`` reply into it and raises
:class:`FrameError` on anything the document does not allow.
"""

from __future__ import annotations

import numpy as np


class FrameError(ValueError):
    """A reply that cannot be applied to the client's state."""


STATE_KEYS = ("frame_id", "statistics", "display_order", "windows")
WINDOW_KEYS = ("title", "width", "height", "distances", "item_ids")


def _full_window(window: dict) -> dict:
    missing = [k for k in WINDOW_KEYS if k not in window]
    if missing:
        raise FrameError(f"window lacks {missing}")
    cells = window["width"] * window["height"]
    if len(window["distances"]) != cells or len(window["item_ids"]) != cells:
        raise FrameError("window cell arrays do not match its geometry")
    return {k: window[k] for k in WINDOW_KEYS}


def _snapshot(reply: dict) -> dict:
    return {
        "frame_id": reply["frame_id"],
        "statistics": reply["statistics"],
        "display_order": reply["display_order"],
        "windows": {k: _full_window(w) for k, w in reply["windows"].items()},
    }


def _sorted_difference(a: np.ndarray, b: np.ndarray) -> list[int]:
    return np.setdiff1d(a, b, assume_unique=True).tolist()


def _display(state: dict, display: dict) -> list[int]:
    if display.get("unchanged"):
        return state["display_order"]
    order = display["order"]
    new = np.sort(np.asarray(order, dtype=np.int64))
    old = np.sort(np.asarray(state["display_order"], dtype=np.int64))
    if (sorted(display["entered"]) != _sorted_difference(new, old)
            or sorted(display["left"]) != _sorted_difference(old, new)):
        raise FrameError("display entered/left lists disagree with the order")
    return order


def _patched_window(previous: dict, entry: dict) -> dict:
    distances = list(previous["distances"])
    item_ids = list(previous["item_ids"])
    size = len(distances)
    for index, distance, item in entry["cells"]:
        if not 0 <= index < size:
            raise FrameError(f"cell index {index} outside the window")
        distances[index] = distance
        item_ids[index] = item
    return {
        "title": entry.get("title", previous["title"]),
        "width": previous["width"],
        "height": previous["height"],
        "distances": distances,
        "item_ids": item_ids,
    }


def apply(state: dict | None, reply: dict) -> dict:
    """The state after ``reply``; ``state`` itself is never modified."""
    if reply.get("ok") is not True or reply.get("type") != "frame":
        raise FrameError(f"not a frame: {str(reply)[:200]}")
    mode = reply.get("mode")
    if mode == "snapshot":
        return _snapshot(reply)
    if state is None:
        raise FrameError(f"{mode!r} reply before any full frame")
    if mode == "unchanged":
        if reply["frame_id"] != state["frame_id"]:
            raise FrameError("'unchanged' names a frame the client lacks")
        return {**state, "statistics": reply["statistics"]}
    if mode != "delta":
        raise FrameError(f"unknown frame mode {mode!r}")
    if reply["base_frame_id"] != state["frame_id"]:
        raise FrameError(
            f"delta base {reply['base_frame_id']} != held frame {state['frame_id']}")
    removed = set(reply.get("removed_windows", ()))
    windows = {}
    for key, entry in reply["windows"].items():
        previous = state["windows"].get(key)
        if "full" in entry:
            windows[key] = _full_window(entry["full"])
        elif previous is None:
            raise FrameError(f"delta patches unknown window {key!r}")
        elif entry.get("unchanged"):
            windows[key] = previous
        else:
            windows[key] = _patched_window(previous, entry)
    unaccounted = set(state["windows"]) - set(windows) - removed
    if unaccounted or removed & set(windows):
        raise FrameError("removed_windows disagrees with the window set")
    return {
        "frame_id": reply["frame_id"],
        "statistics": reply["statistics"],
        "display_order": _display(state, reply["display"]),
        "windows": windows,
    }


def same_state(a: dict, b: dict) -> bool:
    """Field-for-field equality of two client states."""
    return all(a[k] == b[k] for k in STATE_KEYS)
