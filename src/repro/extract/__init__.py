"""Dual-sided RC extraction: RC trees, Elmore delay, DEF-based extraction."""

from .extract import (
    VIA_RES_KOHM,
    Extraction,
    congestion_derates,
    estimate_net_parasitics,
    estimate_parasitics,
    extract_design,
    extract_net,
)
from .rc import NetParasitics, RCTree, elmore_forest
from .spef import SpefNet, parse_spef, write_spef

__all__ = [
    "Extraction",
    "NetParasitics",
    "RCTree",
    "VIA_RES_KOHM",
    "congestion_derates",
    "elmore_forest",
    "estimate_net_parasitics",
    "estimate_parasitics",
    "extract_design",
    "extract_net",
    "parse_spef",
    "write_spef",
    "SpefNet",
]
