"""Command line front end.

Reports are JSON on stdout: an envelope with the command, package
version, a small instance digest, a ``result`` payload, a status, and
the wall time.  Exit codes: 0 clean, 1 bad input, 2 qualified result
(bound only, audit violations, mismatch), 3 iteration, size or memory
limits.

Heavy imports happen after argument parsing so that ``--threads`` can
pin the BLAS pool before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

_STATUS_CODES = {"ok": 0, "error": 1, "qualified": 2, "limit": 3}
_PI_CAP = 10000
_W_CAP = 1000
_STRATEGY_INLINE_CAP = 5000


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pro",
        description="Income-maximizing link selection and link weighting "
                    "for teleporting random-surfer chains.")
    parser.add_argument("--version", action="store_true",
                        help="print the package version and exit")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="pin BLAS and OpenMP pools to N threads")
    parser.add_argument("--deterministic", action="store_true",
                        help="zero out timing fields for comparable output")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pagerank", help="stationary measure of a strategy's chain")
    p.add_argument("instance")
    p.add_argument("--strategy", help="strategy JSON file; default keeps no links on")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("optimize", help="best strategy under local constraints")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--mode", choices=("auto", "subset", "weights"), default="auto",
                   help="assert the instance's control kind before solving")
    p.add_argument("--out", help="write the strategy JSON here")

    p = sub.add_parser("optimize-coupled", help="column generation under budget rows")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-outer", type=int, default=200)
    p.add_argument("--out", help="write the best feasible strategy JSON here")

    p = sub.add_parser("analyze", help="value ordering and optimality audit")
    p.add_argument("instance")
    p.add_argument("--strategy", help="strategy JSON file to audit")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("verify", help="cross-check the solver against enumeration")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=20,
                   help="maximum total facultative links to enumerate")
    p.add_argument("--tol", type=float, default=1e-8)
    return parser


def _digest(inst):
    return {
        "num_pages": inst.num_pages,
        "damping": inst.damping,
        "obligatory_links": int(inst.obl_indices.size),
        "facultative_links": int(inst.fac_indices.size),
        "weight_constrained_pages": len(inst.skeletons),
        "coupling_rows": len(inst.coupling),
    }


def _strategy_payload(strategy):
    doc = strategy.to_json_dict()
    size = sum(len(p.get("activated", p.get("row_entries", [])))
               for p in doc["pages"])
    if size <= _STRATEGY_INLINE_CAP:
        return doc
    return {"pages_controlled": len(doc["pages"]), "entries_total": size,
            "omitted": True}


def _write_strategy(path, strategy):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategy.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _top_pages(pi, count=10):
    import numpy as np

    order = np.argsort(-pi, kind="stable")[:count]
    return [[int(i), float(pi[i])] for i in order]


def _cmd_pagerank(args):
    from . import chain
    from .graph import build_transition, load_instance, load_strategy

    inst = load_instance(args.instance)
    strat = load_strategy(args.strategy, inst) if args.strategy else None
    trans = build_transition(inst, strat)
    sd = chain.stationary(trans, tol=args.tol)
    result = {
        "iterations": sd.iterations,
        "residual": sd.residual,
        "utility": chain.utility_from_chain(trans, sd.pi, inst.rewards),
        "top": _top_pages(sd.pi),
    }
    if inst.num_pages <= _PI_CAP:
        result["pi"] = [float(x) for x in sd.pi]
    return inst, result, "ok"


def _cmd_optimize(args):
    from .errors import CouplingPresent, MaxIterExceeded, ValidationError
    from .graph import load_instance
    from .solver_local import SolverConfig, value_iterate

    inst = load_instance(args.instance)
    if inst.coupling:
        raise CouplingPresent(
            "instance has coupling rows; use optimize-coupled")
    has_subset = inst.fac_indices.size > 0
    has_weights = len(inst.skeletons) > 0
    if args.mode == "subset" and has_weights:
        raise ValidationError("mode subset, but weight-constrained pages present")
    if args.mode == "weights" and has_subset:
        raise ValidationError("mode weights, but facultative links present")
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    try:
        state, strat = value_iterate(inst, cfg)
    except MaxIterExceeded as exc:
        state, strat = exc.result
    result = {
        "income": state.psi,
        "iterations": state.iterations,
        "stop_reason": state.stop_reason,
        "residual": state.residual,
        "tol": state.residual if state.stop_reason == "rounding" else args.tol,
        "strategy": _strategy_payload(strat),
    }
    if inst.num_pages <= _W_CAP:
        result["values"] = [float(x) for x in state.w]
    if state.stop_reason == "max_iter":
        return inst, result, "limit"
    if args.out:
        _write_strategy(args.out, strat)
    return inst, result, "ok"


def _cmd_optimize_coupled(args):
    from .graph import load_instance
    from .solver_coupled import CoupledConfig, solve_coupled

    inst = load_instance(args.instance)
    res = solve_coupled(inst, CoupledConfig(tol=args.tol, max_outer=args.max_outer))
    result = {
        "dual_bound": res.dual_bound,
        # unbounded when no feasible income was found; JSON has no Infinity
        "gap": res.gap if math.isfinite(res.gap) else None,
        "iterations": res.iterations,
        "master_pivots": sum(res.master_pivots),
        "stop_reason": res.stop_reason,
        "best_feasible": None,
        "candidate": None,
    }
    if res.best_feasible is not None:
        strat = res.best_feasible.strategy
        result["best_feasible"] = {"value": res.best_feasible.value,
                                   "strategy": _strategy_payload(strat)}
        if args.out:
            _write_strategy(args.out, strat)
    if res.candidate is not None:
        cand = res.candidate
        result["candidate"] = {
            "utility": cand.utility,
            "feasible": cand.feasible,
            "coupling_values": [float(x) for x in cand.coupling_values],
            "strategy": _strategy_payload(cand.strategy),
        }
    status = "ok" if (res.best_feasible is not None and res.gap <= args.tol) \
        else "qualified"
    return inst, result, status


def _cmd_analyze(args):
    from .analysis import master_ordering
    from .graph import load_instance, load_strategy

    inst = load_instance(args.instance)
    strat = load_strategy(args.strategy, inst) if args.strategy else None
    report = master_ordering(inst, strat, tol=args.tol)
    clean = report.optimal and not report.violations
    result = report.to_report_dict(cap=_STRATEGY_INLINE_CAP, value_cap=_W_CAP)
    return inst, result, "ok" if clean else "qualified"


def _cmd_verify(args):
    from .chain import ROUNDING
    from .errors import ValidationError
    from .graph import load_instance
    from .oracle import EnumerationBudget, brute_force_optimum
    from .solver_coupled import solve_coupled
    from .solver_local import SolverConfig, value_iterate

    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"tol must be finite and nonnegative, got {args.tol}")
    inst = load_instance(args.instance)
    budget = EnumerationBudget(args.budget)
    brute = brute_force_optimum(inst, budget)
    if inst.coupling:
        res = solve_coupled(inst)
        solver_value = res.best_feasible.value if res.best_feasible else None
    else:
        # an exact match (--tol 0) solves down to the rounding floor
        tol = max(min(args.tol / 10, 1e-9), ROUNDING)
        state, _ = value_iterate(inst, SolverConfig(tol=tol))
        solver_value = state.psi
    if solver_value is None:
        result = {"brute_value": brute.value, "solver_value": None,
                  "difference": None, "match": False}
        return inst, result, "qualified"
    diff = solver_value - brute.value
    match = abs(diff) <= args.tol
    result = {"brute_value": brute.value, "solver_value": solver_value,
              "difference": diff, "match": match}
    return inst, result, "ok" if match else "qualified"


_COMMANDS = {
    "pagerank": _cmd_pagerank,
    "optimize": _cmd_optimize,
    "optimize-coupled": _cmd_optimize_coupled,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
}


def _classify(exc):
    from . import errors

    if isinstance(exc, (errors.MaxIterExceeded, errors.BudgetExceeded,
                        errors.TooLarge, MemoryError)):
        return "limit"
    if isinstance(exc, (errors.CouplingPresent, errors.Infeasible)):
        return "qualified"
    if isinstance(exc, (errors.ProError, OSError, json.JSONDecodeError)):
        return "error"
    raise exc


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    from . import __version__

    if args.version:
        print(__version__)
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    start = time.perf_counter()
    envelope = {"command": args.command, "version": __version__}
    try:
        inst, result, status = _COMMANDS[args.command](args)
        envelope["instance"] = _digest(inst)
        envelope["result"] = result
        envelope["status"] = status
    except Exception as exc:  # noqa: BLE001 - classified and re-raised if foreign
        status = _classify(exc)
        envelope["status"] = status
        envelope["error"] = {"type": type(exc).__name__, "message": str(exc)}
    elapsed = 0.0 if args.deterministic else (time.perf_counter() - start) * 1000.0
    envelope["wall_time_ms"] = round(elapsed, 3)
    print(json.dumps(envelope, indent=2, sort_keys=True))
    return _STATUS_CODES[envelope["status"]]


if __name__ == "__main__":
    sys.exit(main())
