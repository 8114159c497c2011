"""The benchmark's workloads, their quality accounting and correctness gate.

Every workload is a closed loop with one client: the next job is sent
only after the previous one returns.  Job inputs derive from the
workload seed alone.  The first ``quality_jobs`` jobs always run, and
the quality metrics are computed over exactly those jobs, so they repeat
exactly at a given seed however fast the machine is; the loop then keeps
sending jobs until the measured window is over, and the timing metrics
cover every job.

exact-poly
    ``run_bench`` over one exactly-polynomial registry entry per job
    (arity 1 and 2, degree 2).  Jobs take a fraction of a second and most
    of the time goes to symbolic algebra (canonicalize, identity normal
    form, symbolic verification).
verify-known
    ``symbolic_verify`` then ``property_test`` on each of the 49
    registered ground-truth identities and on one mutant of each (one
    coefficient shifted by 1/100).  No regression runs; most of the time
    is spent drawing fresh samples from the oracle.
transcendental-cv
    one ``run_bench`` batch per job over degree-3 transcendental entries,
    on a worker pool of ``nproc`` threads; cross-validated lasso and
    high-precision verification dominate.  A batch takes tens of seconds
    and its cost swings with the seed (sinc_composite raises a
    seed-dependent ValueError or spends ~3x as long succeeding), so it is
    runnable but not part of the gated set in BENCHMARK.json.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

EXACT_POLY_ENTRIES = (
    "linear",
    "squared",
    "int_mult",
    "sign",
    "frac",
    "floudas",
    "mean",
    "diff_squares",
    "square_loss",
    "inverse",
)
TRANSCENDENTAL_ENTRIES = ("exp", "cosh", "tan", "log", "sigmoid", "sinc_composite")
MUTATION = (1, 100)  # a mutant shifts one coefficient by 1/100

VERIFIED = ("verified_symbolic", "verified_numeric")


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *key])
    return int(ss.generate_state(1)[0])


def round_position(seed: int, index: int, k: int) -> int:
    """Item of job ``index`` when every round of ``k`` jobs visits each of
    ``k`` items once, in a seeded order of its own."""
    rnd, pos = divmod(index, k)
    order = np.random.Generator(np.random.PCG64(derive(seed, 2, rnd))).permutation(k)
    return int(order[pos])


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class JobResult:
    """What one job produced, in the units the metrics are counted in."""

    index: int
    latency: float = 0.0
    units: int = 0  # rows for discovery jobs, 1 for a verify job
    failures: list = field(default_factory=list)  # dicts
    verified: int = 0
    rsr: int = 0
    gt_matched: int = 0
    gt_registered: int = 0
    verdicts: int = 0
    verdicts_correct: int = 0
    identities: list = field(default_factory=list)
    claims: list = field(default_factory=list)  # (case key, claimed verdict)


class ErrorTypes:
    """Exception type names by message, for errors run_bench stores as text.

    run_bench keeps only ``str(exc)`` in a failed row; these pass-through
    wrappers record the type of anything the per-entry calls raise.
    """

    TARGETS = ("infer", "classify", "ground_truth_check")

    def __init__(self):
        self.by_message = {}
        self._installed = []

    def install(self):
        import rsrforge.bench as rb

        for attr in self.TARGETS:
            original = getattr(rb, attr, None)
            if original is None:
                continue
            setattr(rb, attr, self._wrap(original))
            self._installed.append((rb, attr, original))

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.by_message[str(exc)] = type(exc).__name__
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


class Workload:
    name = ""
    workers = 1

    def __init__(self, quality_jobs: int):
        self.quality_jobs = quality_jobs
        self.seed = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_job(self, index: int) -> JobResult:
        raise NotImplementedError

    def oracles(self) -> list:
        """Oracles the benchmark built, so the traced run can count calls."""
        return []

    def recheck(self, results, seed: int) -> tuple:
        """Re-check every claim on a fresh seed: (checked, failures).

        Discovery jobs claim that a property verified; a verify job claims
        its pair of channel verdicts.  Each distinct claim is re-checked
        once, outside the timed region.
        """
        raise NotImplementedError


# --------------------------------------------------------------------------
# Discovery workloads: run_bench per job
# --------------------------------------------------------------------------


class DiscoveryWorkload(Workload):
    def __init__(self, name, entries, batch: bool, workers: int, quality_jobs: int):
        super().__init__(quality_jobs)
        self.name = name
        self.entry_names = tuple(entries)
        self.batch = batch
        self.workers = workers
        self.errors = ErrorTypes()

    def setup(self, seed: int) -> None:
        from rsrforge.bench import select_entries

        self.seed = seed
        self.entries = {e.name: e for e in select_entries(names=self.entry_names)}
        self._oracles = {n: e.oracle() for n, e in self.entries.items()}

    def job_names(self, index: int) -> list:
        if self.batch:
            return list(self.entry_names)
        return [self.entry_names[round_position(self.seed, index, len(self.entry_names))]]

    def run_job(self, index: int) -> JobResult:
        import rsrforge.bench as rb

        names = self.job_names(index)
        job_seed = derive(self.seed, 1, index)
        out = JobResult(index=index)
        try:
            report = rb.run_bench(
                names=names, repetitions=1, seed=job_seed, workers=self.workers
            )
        except Exception as exc:
            out.units = len(names)
            out.failures = [_failure(self.name, n, job_seed, exc) for n in names]
            return out
        for row in report.rows:
            entry = self.entries[row.name]
            out.units += 1
            out.gt_registered += len(entry.ground_truth)
            rep = row.reps[0] if row.reps else {}
            if row.error:
                out.failures.append(
                    {
                        "workload": self.name,
                        "entry": row.name,
                        "seed": rep.get("seed", job_seed),
                        "type": self.errors.by_message.get(row.error, "unknown"),
                        "message": row.error,
                    }
                )
                continue
            out.verified += row.verified
            out.rsr += row.rsr
            out.gt_matched += len(rep.get("ground_truth_matched", ()))
            for prop in rep.get("properties", ()):
                out.identities.append(f"{row.name}: {prop['identity']} [{prop['status']}]")
                if prop["status"] in VERIFIED:
                    out.claims.append(((row.name, prop["identity"]), prop["status"]))
        return out

    def recheck(self, results, seed: int) -> tuple:
        from rsrforge.discovery import property_from_identity
        from rsrforge.parser import parse
        from rsrforge.verification import VerifyConfig, property_test, symbolic_verify

        cfg = VerifyConfig()
        claims = {claim for res in results for claim in res.claims}
        failures = []
        refuted = set()
        for k, ((name, identity), status) in enumerate(sorted(claims)):
            entry = self.entries[name]
            text = identity[: -len(" = 0")]
            fresh = derive(seed, 7, k)
            try:
                if status == "verified_symbolic":
                    ok = symbolic_verify(
                        text,
                        entry.closed_form,
                        cfg,
                        box=entry.box,
                        seed=fresh,
                        arity=entry.arity,
                    ).passed
                else:
                    prop = property_from_identity(parse(text))
                    ok = property_test(prop, self._oracles[name], cfg, seed=fresh).passed
                why = "" if ok else "re-check did not pass"
            except Exception as exc:
                ok, why = False, f"{type(exc).__name__}: {exc}"
            if not ok:
                failures.append(
                    {"entry": name, "identity": identity, "claim": status, "why": why}
                )
                refuted.add(((name, identity), status))
        for res in results:
            res.verdicts = len(res.claims)
            res.verdicts_correct = sum(1 for c in res.claims if c not in refuted)
        return len(claims), failures


def _failure(workload, entry, seed, exc) -> dict:
    return {
        "workload": workload,
        "entry": entry,
        "seed": seed,
        "type": type(exc).__name__,
        "message": str(exc),
    }


# --------------------------------------------------------------------------
# verify-known: both verification channels on known identities and mutants
# --------------------------------------------------------------------------


@dataclass
class _Case:
    entry: object
    oracle: object
    label: str
    expr: object  # identity expression handed to symbolic_verify
    prop: object  # Property handed to property_test
    true: bool
    recoverable: bool


class VerifyKnownWorkload(Workload):
    name = "verify-known"

    def __init__(self, quality_jobs: int = None, entries=None):
        super().__init__(quality_jobs)
        self.entry_names = entries

    def setup(self, seed: int) -> None:
        from dataclasses import replace

        from rsrforge.bench import registry
        from rsrforge.discovery import property_from_identity, solve_recovery
        from rsrforge.errors import NotSolvable
        from rsrforge.expr import Const, Product, Sum, canonicalize
        from rsrforge.parser import format_expr
        from rsrforge.queries import monomial_to_expr
        from rsrforge.rational import Rational

        self.seed = seed
        shift = Rational(*MUTATION)
        cases = []
        for entry in registry():
            if not entry.ground_truth:
                continue
            if self.entry_names is not None and entry.name not in self.entry_names:
                continue
            oracle = entry.oracle()
            for gt in entry.ground_truth:
                prop = property_from_identity(gt)
                try:
                    solve_recovery(prop)
                    recoverable = True
                except NotSolvable:
                    recoverable = False
                label = f"{entry.name}: {format_expr(gt)} = 0"
                cases.append(_Case(entry, oracle, label, gt, prop, True, recoverable))

                k = derive(seed, 3, len(cases)) % len(prop.pairs)
                pairs = list(prop.pairs)
                pairs[k] = (pairs[k][0], pairs[k][1] + shift)
                mutant_expr = canonicalize(
                    Sum(
                        tuple(
                            Product((Const(c), monomial_to_expr(mono, prop.basis)))
                            for mono, c in pairs
                        )
                    )
                )
                mutant = replace(prop, identity=mutant_expr, pairs=tuple(pairs))
                cases.append(
                    _Case(
                        entry,
                        oracle,
                        f"{entry.name}: {format_expr(mutant_expr)} = 0 [mutant]",
                        mutant_expr,
                        mutant,
                        False,
                        recoverable,
                    )
                )
        self.cases = cases
        if self.quality_jobs is None:
            self.quality_jobs = len(cases)

    def verdict(self, case: _Case, seed: int) -> tuple:
        """(symbolic passed, property test passed) for one case."""
        import rsrforge.verification as ver

        cfg = ver.VerifyConfig()
        sym = ver.symbolic_verify(
            case.expr,
            case.entry.closed_form,
            cfg,
            box=case.entry.box,
            seed=seed,
            arity=case.entry.arity,
        )
        pt = ver.property_test(case.prop, case.oracle, cfg, seed=seed)
        return sym.passed, pt.passed

    def run_job(self, index: int) -> JobResult:
        ci = round_position(self.seed, index, len(self.cases))
        case = self.cases[ci]
        job_seed = derive(self.seed, 1, index)
        out = JobResult(index=index, units=1, verdicts=1)
        try:
            got = self.verdict(case, job_seed)
        except Exception as exc:
            out.failures.append(_failure(self.name, case.label, job_seed, exc))
            return out
        passed = got[0] and got[1]
        out.verdicts_correct = int(got == (case.true, case.true))
        out.verified = int(passed)
        out.rsr = int(passed and case.recoverable)
        out.gt_registered = int(case.true)
        out.gt_matched = int(case.true and passed)
        out.identities.append(f"{case.label} -> {got}")
        out.claims.append((ci, got))
        return out

    def oracles(self) -> list:
        return list({id(case.oracle): case.oracle for case in self.cases}.values())

    def recheck(self, results, seed: int) -> tuple:
        claims = {}
        for res in results:
            for ci, got in res.claims:
                claims.setdefault(ci, set()).add(got)
        failures = []
        for ci in sorted(claims):
            case = self.cases[ci]
            try:
                again = self.verdict(case, derive(seed, 7, ci))
                why = "" if claims[ci] == {again} else f"jobs said {sorted(claims[ci])}"
            except Exception as exc:
                again, why = None, f"{type(exc).__name__}: {exc}"
            if why:
                failures.append({"case": case.label, "recheck": again, "why": why})
        return len(claims), failures


def make(name: str, **sizes) -> Workload:
    """The named workload at its benchmark size, or smaller via ``sizes``."""
    if name == "exact-poly":
        return DiscoveryWorkload(
            name,
            sizes.get("entries", EXACT_POLY_ENTRIES),
            batch=False,
            workers=1,
            quality_jobs=sizes.get("quality_jobs", 5 * len(EXACT_POLY_ENTRIES)),
        )
    if name == "transcendental-cv":
        return DiscoveryWorkload(
            name,
            sizes.get("entries", TRANSCENDENTAL_ENTRIES),
            batch=True,
            workers=nproc(),
            quality_jobs=sizes.get("quality_jobs", 1),
        )
    if name == "verify-known":
        return VerifyKnownWorkload(sizes.get("quality_jobs"), sizes.get("entries"))
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = ("exact-poly", "verify-known", "transcendental-cv")


def closed_loop(workload: Workload, seconds: float, count: int = None, tracer=None):
    """Send jobs one after another; returns (results, wall seconds).

    With ``count`` the loop runs exactly jobs ``0 .. count-1``; otherwise
    it runs at least the quality jobs and then keeps going until
    ``seconds`` have passed.  With a tracer, each job is a root span.
    """
    results = []
    t_start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= workload.quality_jobs and time.perf_counter() - t_start >= seconds:
            break
        close = tracer.open_job(i) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            res = workload.run_job(i)
        finally:
            if close is not None:
                close()
        res.latency = time.perf_counter() - t0
        results.append(res)
        i += 1
    return results, time.perf_counter() - t_start
