"""The report entry: one finding shape and one verdict rule for every command.

A finding is a plain dict, the shape docs/schema/report.schema.json gives
the items of a report's ``findings``. ``finding`` is its only constructor
and ``verdict`` the only rule that turns a list of findings into a report
verdict; the CLI and the example runners both use them.
"""

from __future__ import annotations


def finding(name: str, ok: bool | None = None, *, asserted: bool = True,
            residual: float | None = None, tolerance: float | None = None,
            value=None, detail: str = "", documented_departure: bool = False) -> dict:
    """One report entry, decided by a flag or by a residual against its tolerance.

    Pass either ``ok`` or ``residual`` with ``tolerance``; in the residual
    form ``ok`` is ``residual <= tolerance``, so a NaN residual fails.
    Only ``asserted`` findings take part in the verdict.
    """
    if (ok is None) == (residual is None):
        raise TypeError("a finding takes either ok or a residual with its tolerance")
    out: dict = {"name": name, "asserted": bool(asserted)}
    if residual is not None:
        out["residual"] = float(residual)
        out["tolerance"] = float(tolerance)
        ok = out["residual"] <= out["tolerance"]
    out["ok"] = bool(ok)
    if value is not None:
        out["value"] = value
    if detail:
        out["detail"] = detail
    if documented_departure:
        out["documented_departure"] = True
    return out


def verdict(findings: list[dict]) -> str:
    """The report verdict of a list of findings.

    "fail" when an asserted finding is not ok, else "flagged" when some
    finding records a documented departure, else "pass".
    """
    if any(f["asserted"] and not f["ok"] for f in findings):
        return "fail"
    if any(f.get("documented_departure") for f in findings):
        return "flagged"
    return "pass"
