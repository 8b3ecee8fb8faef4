"""The JSON shape of every service response, checked with the standard library.

A shape is a dict of key -> expected type, a nested shape, or a list
holding one item shape; a key ending in ``?`` may be absent or ``null``.
Keys a shape does not name are allowed, so a response may grow a field
without breaking these checks.
"""

from __future__ import annotations

from typing import Any

NUMBER = (int, float)

REQUEST_META = {
    "simulations": int,
    "store_hits": int,
    "store_builds": int,
    "warm": bool,
    "request_id": str,
    "duration_ms": NUMBER,
}
META = {"endpoint": str, "request": REQUEST_META, "session": dict, "store?": dict}

ERROR = {
    "error": {
        "status": int,
        "type": str,
        "message": str,
        "field?": str,
        "value?": object,
        "choices?": list,
        "detail?": [{"loc": list, "msg": str, "type": str}],
    }
}

HEALTH = {
    "status": str,
    "version": str,
    "uptime_s": NUMBER,
    "requests_served": int,
    "has_store": bool,
    "store_root?": str,
    "pregen?": {
        "grid": str,
        "grid_hash": str,
        "row_count": int,
        "complete": bool,
        "version": str,
    },
    "backend": str,
    "endpoints": [str],
}

#: The 2xx payload shape of each JSON route.
RESPONSES = {
    "/v1/healthz": HEALTH,
    "/v1/store/stats": {
        "has_store": bool,
        "root?": str,
        "stats?": dict,
        "records_by_kind?": dict,
        "session": dict,
    },
    "/v1/plan": {"config": dict, "result": dict, "meta": META},
    "/v1/sweep": {
        "base_config": dict,
        "strategies": [str],
        "axes": dict,
        "cells": [dict],
        "meta": META,
    },
    "/v1/cluster": {
        "cluster": dict,
        "workload": str,
        "reports": dict,
        "faults?": dict,
        "tenants?": [dict],
        "price_curve?": str,
        "meta": META,
    },
    "/v1/tune": {
        "objective": dict,
        "driver": str,
        "budget": int,
        "space": dict,
        "best": dict,
        "frontier": [dict],
        "measurements": [dict],
        "trajectory": [dict],
        "notes": dict,
        "evaluator_stats": dict,
        "session_stats": dict,
        "meta": META,
    },
    "/v1/precompute": {
        "spec": dict,
        "grid": str,
        "grid_hash": str,
        "cells": int,
        "grid_size": int,
        "simulated": int,
        "hydrated": int,
        "row_count": int,
        "complete": bool,
        "store": dict,
        "meta": META,
    },
}


def check_shape(value: Any, shape: Any, where: str = "payload") -> None:
    """Assert that ``value`` has ``shape``; the message names the bad path."""
    if isinstance(shape, dict):
        assert isinstance(value, dict), f"{where}: expected an object, got {value!r}"
        for key, inner in shape.items():
            name = key.rstrip("?")
            if key.endswith("?") and value.get(name) is None:
                continue
            assert name in value, f"{where}: missing {name!r}"
            check_shape(value[name], inner, f"{where}.{name}")
    elif isinstance(shape, list):
        assert isinstance(value, list), f"{where}: expected an array, got {value!r}"
        for index, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{index}]")
    elif shape is NUMBER or shape is int:
        assert isinstance(value, shape) and not isinstance(value, bool), (
            f"{where}: expected {shape}, got {value!r}"
        )
    else:
        assert isinstance(value, shape), f"{where}: expected {shape}, got {value!r}"
