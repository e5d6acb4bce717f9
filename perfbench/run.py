"""irrcert benchmark: refute, verify and reject seeded claims from one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shallow --seed 0 --seconds 50 --trace 0

The package is imported from ``src/`` of that checkout and driven only
through its public names.  Claims run as a closed loop with one caller: each
claim starts after the previous one finishes.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a run whose even batches are traced.  Lines before it
are a readable report and one ``{"meta": ...}`` JSON line.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_HOLES, WORKLOADS, Claim, ClaimStream, StreamExhausted, mutant_class, mutants,
)

# the first two batches always run, whatever --seconds says: their
# certificates are digested.  Batch 1 is untraced in every mode; on shallow
# it holds the CLI sample
CORE_BATCHES = 2
CLI_BATCH = 1
CLI_KINDS = ("tan", "tan-ratio", "exp", "pi", "pi-squared")
CLI_REPEATS = 4
# a single operation past this is recorded as failed and the run moves on
OP_LIMIT_S = 20.0
SETUP_SPAWNS = 11
# tail percentile per workload, fixed so that runs compare like with like:
# the highest that leaves at least ten samples beyond it at the sample
# counts a 50 s run reaches (shallow ~1100 claims, deep ~130)
TAIL_PERCENTILE = {"shallow": 99, "deep": 90}
DIGESTS = HERE / "digests.json"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past OP_LIMIT_S; a
    BaseException so that no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def timed(fn, *args):
    """(seconds, result, exception) for one operation under the time limit."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    t0 = perf_counter()
    try:
        result = fn(*args)
        return perf_counter() - t0, result, None
    except (OpTimeout, Exception) as exc:  # recorded per operation, counted as failed
        return perf_counter() - t0, None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_package(root: Path):
    src = root / "src"
    if not (src / "irrcert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no irrcert package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import irrcert

    if Path(irrcert.__file__).resolve().parent != (src / "irrcert").resolve():
        sys.exit(f"perfbench: imported irrcert from {irrcert.__file__}, not from {src}")
    return irrcert


def program_claim(irrcert, claim: Claim):
    """The package's Claim for a workload claim ("tan-ratio" -> TAN_RATIO)."""
    kind = getattr(irrcert.ClaimKind, claim.kind.upper().replace("-", "_"))
    return irrcert.Claim(kind, claim.arg, claim.value)


# (where the name is looked up, name, span) for every wrapped public name.
# "search" is irrcert.certificates, where the search and the checker look
# their helpers up; "api" adds the package itself, which the benchmark calls.
TRACED_NAMES = (
    ("search", "iter_tan_sequence", "recurrences.step"),
    ("search", "iter_pi_sequence", "recurrences.step"),
    ("search", "iter_exp_sequence", "recurrences.step"),
    ("search", "iter_cos_system", "recurrences.step"),
    ("IntPoly", "eval_scaled_integer", "exactnum.eval_scaled"),
    ("IntPoly", "eval_rational", "exactnum.eval_rational"),
    ("IntPoly", "even_part_in_square", "exactnum.parity_split"),
    ("IntPoly", "odd_part_in_square", "exactnum.parity_split"),
    ("search", "sqrt_bounds", "exactnum.sqrt_bounds"),
    ("search", "enclose", "enclosure.enclose"),
    ("search", "tail_bound", "enclosure.tail_bound"),
    ("search", "factorial_dominance_index", "enclosure.dominance_index"),
    ("search", "exp_upper_bound", "enclosure.exp_upper_bound"),
    ("api", "refute", "certificates.refute"),
    ("api", "check_certificate", "certificates.check"),
    ("api", "to_canonical_json", "certificates.serialize"),
    ("api", "certificate_from_json", "certificates.parse"),
)


def install_tracer(irrcert) -> Tracer:
    """Wrap every name in TRACED_NAMES; one that a later version lacks is
    skipped, and its layer then reads zero calls."""
    search = [m for m in (getattr(irrcert, "certificates", None),) if m is not None]
    poly = getattr(getattr(irrcert, "exactnum", None), "IntPoly", None)
    owners = {"search": search, "api": [irrcert] + search, "IntPoly": [poly] if poly else []}
    tracer = Tracer()
    for where, attr, span in TRACED_NAMES:
        tracer.patch(owners[where], attr, span, generator=attr.startswith("iter_"))
    return tracer


class Run:
    """Per-operation samples and failures of one benchmark run."""

    def __init__(self, irrcert, workload, tracer: Optional[Tracer]):
        self.irrcert = irrcert
        self.workload = workload
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = {"refute": [], "verify": [], "reject": []}
        self.rejected = 0
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.mutant_outcomes: Dict[str, Dict[str, int]] = {}
        # known-hole classes, probed off the clock on batch 0's certificates
        self.hole_outcomes: Dict[str, Dict[str, int]] = {}
        self.probe_texts: List[str] = []
        self.indices: List[int] = []
        self.core_texts: List[str] = []
        self.core_indices: List[int] = []
        self.core_digits = 0
        # claim -> (in-process refute+verify seconds, certificate text), batch 1
        self.cli_inproc: Dict[Claim, tuple] = {}
        # traced-operation span ranges: (op, first span, end span, index n)
        self.ranges: List[tuple] = []
        self.emitted_records = 0

    def fail(self, what: str) -> None:
        self.failures[what] = self.failures.get(what, 0) + 1

    def _span_mark(self) -> int:
        return len(self.tracer.start) if self.tracer and self.tracer.active else -1

    def _range(self, op: str, mark: int, n: int) -> None:
        if mark >= 0:
            self.ranges.append((op, mark, len(self.tracer.start), n))

    def refute(self, claim):
        """The canonical certificate text for one of the package's claims."""
        return self.irrcert.to_canonical_json(self.irrcert.refute(claim))

    def verify(self, text: str):
        irrcert = self.irrcert
        return irrcert.check_certificate(irrcert.certificate_from_json(text)).ok

    def process(self, claim: Claim, batch: int, position: int) -> None:
        self.attempted += 1
        mark = self._span_mark()
        seconds, text, exc = timed(self.refute, program_claim(self.irrcert, claim))
        if exc is not None:
            self.fail(f"refute:{type(exc).__name__}")
            if batch < CORE_BATCHES:
                self.core_texts.append(f"FAILED {claim.label()}")
            return
        self._range("refute", mark, -1)
        self.samples["refute"].append(seconds)
        refute_s = seconds
        doc = json.loads(text)
        n = doc["n"]
        self.indices.append(n)
        if mark >= 0:
            self.emitted_records += sum(1 for rec in doc["enclosures"] if rec["fn"] != "sqrt")
        if batch < CORE_BATCHES:
            self.core_texts.append(text)
            self.core_indices.append(n)
            if batch == 0:
                self.probe_texts.append(text)
            self.core_digits += len(doc["witness"].lstrip("-"))

        self.attempted += 1
        mark = self._span_mark()
        seconds, ok, exc = timed(self.verify, text)
        if exc is not None or not ok:
            self.fail("verify:" + (type(exc).__name__ if exc else "INVALID"))
        else:
            self.samples["verify"].append(seconds)
        self._range("check", mark, n)

        if batch == CLI_BATCH:
            self.cli_inproc[claim] = (refute_s + seconds, text)

        for cls, mutant in mutants(text, [mutant_class(self.workload, batch, position)]):
            self.attempted += 1
            mark = self._span_mark()
            seconds, outcome = self._reject(mutant)
            self._range("check", mark, json.loads(mutant)["n"])
            self.samples["reject"].append(seconds)
            counts = self.mutant_outcomes.setdefault(cls, {})
            counts[outcome] = counts.get(outcome, 0) + 1
            if outcome in ("INVALID", "ValueError"):
                self.rejected += 1
            else:
                self.fail(f"{cls}:{outcome}")

    def _reject(self, text: str):
        """(seconds, outcome): INVALID or ValueError is a reject; VALID or any
        other exception is a failure, named by its type."""
        irrcert = self.irrcert

        def check():
            try:
                cert = irrcert.certificate_from_json(text)
            except ValueError:
                return "ValueError"
            return "VALID" if irrcert.check_certificate(cert).ok else "INVALID"

        seconds, outcome, exc = timed(check)
        return seconds, (type(exc).__name__ if exc else outcome)

    def probe_holes(self) -> None:
        """Check each known-hole mutant of batch 0's certificates once and
        record the outcome.  These are ROADMAP item 4's open defects: they
        are reported by class, but neither timed nor counted as operations,
        so that every timed operation can succeed."""
        for text in self.probe_texts:
            for cls, mutant in mutants(text, KNOWN_HOLES):
                _, outcome = self._reject(mutant)
                counts = self.hole_outcomes.setdefault(cls, {})
                counts[outcome] = counts.get(outcome, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Spread:
    """Samples taken between batches and spread evenly over the run: the
    host's speed drifts over seconds, so a burst at one moment would catch
    only one phase of it."""

    def __init__(self, total: int):
        self.total = total
        self.done = 0

    def due(self, fraction: float) -> bool:
        """True while fewer than ``fraction`` of the samples have been taken."""
        return self.done < self.total and self.done < fraction * self.total

    def step(self) -> None:
        self.done += 1
        self.sample(self.done - 1)

    def sample(self, i: int) -> None:
        raise NotImplementedError


class SetupSampler(Spread):
    """Seconds of ``import irrcert`` in fresh interpreters; ``median`` is
    ``setup_s``."""

    CODE = ("import time,sys; t=time.perf_counter(); import irrcert; "
            "sys.stdout.write(repr(time.perf_counter()-t))")

    def __init__(self, root: Path, env: dict, count: int):
        super().__init__(count)
        self.root, self.env = root, env
        self.times: List[float] = []
        if count:
            self._spawn()  # warm-up: the first spawn may compile bytecode

    def _spawn(self) -> float:
        out = subprocess.run([sys.executable, "-c", self.CODE], cwd=self.root, env=self.env,
                             capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout)

    def sample(self, i: int) -> None:
        self.times.append(self._spawn())

    def median(self) -> Optional[float]:
        return statistics.median(self.times) if self.times else None


def cli_sample(seed: int) -> List[Claim]:
    """The CLI sample of every workload: the cheap polynomial-engine claims of
    the shallow stream's second batch, so that the round trip measures
    process start, import and argument parsing rather than the search."""
    stream = ClaimStream("shallow", seed)
    stream.next_batch()
    return [claim for claim in stream.next_batch() if claim.kind in CLI_KINDS]


class CliSampler(Spread):
    """CLI round trips: ``refute --output`` then ``verify``, each in a fresh
    interpreter."""

    def __init__(self, root: Path, env: dict, run: Run, claims: List[Claim], tmp: Path):
        self.jobs = claims * CLI_REPEATS
        super().__init__(len(self.jobs))
        self.root, self.env, self.run = root, env, run
        self.path = tmp / "cert.json"
        self.pairs: List[tuple] = []  # (round trip ms, in-process refute+verify ms)

    def sample(self, i: int) -> None:
        run, claim = self.run, self.jobs[i]
        if claim not in run.cli_inproc:  # not in this workload's stream: time it here
            refute_s, text, exc = timed(run.refute, program_claim(run.irrcert, claim))
            verify_s, ok, exc = timed(run.verify, text) if exc is None else (0.0, False, exc)
            if exc is not None or not ok:
                run.fail("cli:inprocess")
                return
            run.cli_inproc[claim] = (refute_s + verify_s, text)
        seconds, text = run.cli_inproc[claim]
        py = [sys.executable, "-m", "irrcert"]
        run.attempted += 1
        t0 = perf_counter()
        made = subprocess.run(py + ["refute"] + claim.cli_args() + ["--output", str(self.path)],
                              cwd=self.root, env=self.env, capture_output=True, timeout=120)
        checked = subprocess.run(py + ["verify", str(self.path)], cwd=self.root, env=self.env,
                                 capture_output=True, timeout=120)
        wall = perf_counter() - t0
        if (made.returncode == 0 and checked.returncode == 0
                and self.path.read_text(encoding="utf-8") == text + "\n"):
            self.pairs.append((1e3 * wall, 1e3 * seconds))
        else:
            run.fail("cli")


def certificate_digest(texts: List[str]) -> str:
    """SHA-256 over canonical certificate texts, in order."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def tail(values: List[float], pct: int):
    """(value, samples beyond it) at the nearest-rank ``pct`` percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def git_commit(root: Path) -> Optional[str]:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() or None


def measure(run: Run, stream: ClaimStream, seconds: float, samplers: List[Spread]):
    """Process batches until ``seconds`` of them have passed (the core
    batches always) or the stream runs dry; with a tracer, even batches are
    traced.  The samplers run between batches, off the clock.  Returns per
    batch (traced, wall seconds, claims done, complete)."""
    tracer = run.tracer
    bench_claim = tracer.name_id("bench.claim") if tracer else None
    batches = []
    start = perf_counter()
    deadline = start + seconds
    b = 0
    while b < CORE_BATCHES or perf_counter() < deadline:
        try:
            claims = stream.next_batch()
        except StreamExhausted:
            if b < CORE_BATCHES:
                raise
            break
        traced = tracer is not None and b % 2 == 0
        if tracer:
            tracer.active = traced
        done = 0
        t0 = perf_counter()
        for position, claim in enumerate(claims):
            span = tracer.begin(bench_claim) if traced else None
            run.process(claim, b, position)
            if traced:
                tracer.finish(span)
            done += 1
            if b >= CORE_BATCHES and perf_counter() >= deadline:
                break
        batches.append((traced, perf_counter() - t0, done, done == len(claims)))
        if tracer:
            tracer.active = False
        b += 1
        # the CLI sample needs batch 1's in-process times
        t0 = perf_counter()
        fraction = (t0 - start) / (deadline - start)
        for sampler in samplers:
            while b >= CORE_BATCHES and sampler.due(fraction):
                sampler.step()
        deadline += perf_counter() - t0
    for sampler in samplers:
        while sampler.due(1.0):
            sampler.step()
    return batches


def end_to_end_metrics(run: Run, setup_s, cli_pairs, peak_rss_mib):
    """(metrics, tails): every end-to-end metric, and per operation its tail
    percentile, sample count and samples beyond the tail."""
    out, tails = {}, {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("setup_s", setup_s, "s")
    units = {"refute": "claims/s", "verify": "certs/s", "reject": "docs/s"}
    for op, values in run.samples.items():
        if not values:
            continue
        done = run.rejected if op == "reject" else len(values)
        put(f"{op}_per_s", done / sum(values), units[op])
        put(f"{op}_p50_ms", 1e3 * statistics.median(values), "ms")
        pct = TAIL_PERCENTILE[run.workload.name]
        value, beyond = tail(values, pct)
        put(f"{op}_tail_ms", 1e3 * value, "ms")
        tails[op] = {"percentile": pct, "samples": len(values), "beyond": beyond}
    if cli_pairs:
        put("cli_p50_ms", statistics.median(w for w, _ in cli_pairs), "ms")
    put("peak_rss_mib", peak_rss_mib, "MiB")
    return out, tails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    digits_before = sys.get_int_max_str_digits()
    irrcert = load_package(root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    signal.signal(signal.SIGALRM, _alarm)
    workload = WORKLOADS[args.workload]
    tracer = install_tracer(irrcert) if args.trace else None
    setup = SetupSampler(root, env, 0 if tracer else SETUP_SPAWNS)

    run = Run(irrcert, workload, tracer)
    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        cli = CliSampler(root, env, run, cli_sample(args.seed), tmp)
        batches = measure(run, ClaimStream(workload.name, args.seed), args.seconds, [setup, cli])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli_pairs = cli.pairs
    measured_s = sum(wall for _, wall, _, _ in batches)

    digest = certificate_digest(run.core_texts)
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(args.seed))
    digest_ok = recorded is None or recorded == digest
    if recorded is not None:
        run.attempted += 1
        if not digest_ok:
            run.fail("digest")
    run.probe_holes()
    correct = run.failed == 0
    failed_ratio = run.failed / run.attempted

    if tracer:
        metrics = layer_metrics(tracer, run, batches, cli_pairs)
        tracer.unpatch()
        shown, tails = metrics, {}
    else:
        metrics, tails = end_to_end_metrics(run, setup.median(), cli_pairs, peak_rss_mib)
        shown = dict(metrics, failed_ratio={"value": failed_ratio, "unit": "fraction"})

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": {"before_import": digits_before,
                               "after_import": sys.get_int_max_str_digits()},
        "git_commit": git_commit(root),
        "batches": len(batches),
        "claims": len(run.indices),
        "index": {"min": min(run.indices), "median": statistics.median(run.indices),
                  "max": max(run.indices)},
        "core": {"claims": len(run.core_texts), "index_min": min(run.core_indices),
                 "index_median": statistics.median(run.core_indices),
                 "index_max": max(run.core_indices), "witness_digits": run.core_digits,
                 "sha256": digest, "recorded_sha256": recorded},
        "tails": tails,
        "failed_ratio": failed_ratio,
        "failures": run.failures,
        "mutant_outcomes": run.mutant_outcomes,
        "known_holes": run.hole_outcomes,
        "spans": len(tracer.start) if tracer else 0,
    }

    print(f"perfbench {workload.name}: seed {args.seed}, {len(run.indices)} claims in "
          f"{len(batches)} batches, {measured_s:.1f} s measured, closed loop, one caller")
    for name, m in shown.items():
        info = tails.get(name[: -len("_tail_ms")]) if name.endswith("_tail_ms") else None
        extra = f"  (p{info['percentile']}, {info['beyond']} of {info['samples']} beyond)" if info else ""
        print(f"  {name:34} {m['value']:.6g} {m['unit']}{extra}")
    for cls, counts in sorted(run.mutant_outcomes.items()):
        print(f"  mutant {cls:28} {counts}")
    for cls, counts in sorted(run.hole_outcomes.items()):
        print(f"  known hole {cls:24} {counts}  (untimed probe, not counted)")
    print(f"  digest {digest[:16]}... " + (
        "unrecorded seed" if recorded is None else ("matches" if digest_ok else "MISMATCH")))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def layer_metrics(tracer: Tracer, run: Run, batches, cli_pairs) -> dict:
    """Per-layer metrics over the traced batches, per traced claim."""
    totals = tracer.totals()
    traced_claims = sum(done for traced, _, done, _ in batches if traced)
    traced_wall = sum(wall for traced, wall, _, _ in batches if traced)
    per = 1 / max(1, traced_claims)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(span):
        return totals.get(span, [0, 0.0, 0.0])[0]

    def self_s(span):
        return totals.get(span, [0, 0.0, 0.0])[2]

    put("recurrences.steps", calls("recurrences.step") * per, "count/claim")
    put("recurrences.step_s", self_s("recurrences.step") * per, "s/claim")
    put("exactnum.eval_scaled_calls", calls("exactnum.eval_scaled") * per, "count/claim")
    put("exactnum.eval_scaled_s", self_s("exactnum.eval_scaled") * per, "s/claim")
    put("exactnum.eval_rational_calls", calls("exactnum.eval_rational") * per, "count/claim")
    put("exactnum.eval_rational_s", self_s("exactnum.eval_rational") * per, "s/claim")
    put("exactnum.parity_split_s", self_s("exactnum.parity_split") * per, "s/claim")
    put("exactnum.sqrt_bounds_s", self_s("exactnum.sqrt_bounds") * per, "s/claim")
    put("enclosure.enclose_calls", calls("enclosure.enclose") * per, "count/claim")
    put("enclosure.enclose_s", self_s("enclosure.enclose") * per, "s/claim")
    search_encloses = sum(tracer.count_in("enclosure.enclose", lo, hi)
                          for op, lo, hi, _ in run.ranges if op == "refute")
    put("enclosure.enclose_per_record",
        search_encloses / run.emitted_records if run.emitted_records else 0.0, "ratio")
    put("enclosure.tail_bound_calls", calls("enclosure.tail_bound") * per, "count/claim")
    put("enclosure.tail_bound_s", self_s("enclosure.tail_bound") * per, "s/claim")
    put("enclosure.dominance_index_s", self_s("enclosure.dominance_index") * per, "s/claim")
    put("enclosure.exp_upper_bound_s", self_s("enclosure.exp_upper_bound") * per, "s/claim")
    put("certificates.search_self_s", self_s("certificates.refute") * per, "s/claim")
    put("certificates.check_self_s", self_s("certificates.check") * per, "s/claim")
    put("certificates.check_research_s",
        tracer.children_of("certificates.check", "certificates.refute") * per, "s/claim")
    check_steps = sum(tracer.count_in("recurrences.step", lo, hi)
                      for op, lo, hi, _ in run.ranges if op == "check")
    check_n = sum(n + 1 for op, _, _, n in run.ranges if op == "check")
    put("certificates.check_steps_per_n", check_steps / check_n if check_n else 0.0, "ratio")
    put("certificates.serialize_s", self_s("certificates.serialize") * per, "s/claim")
    put("certificates.parse_s", self_s("certificates.parse") * per, "s/claim")
    put("certificates.witness_digits", run.core_digits, "count")
    put("cli.overhead_ms",
        statistics.median(w - i for w, i in cli_pairs) if cli_pairs else 0.0, "ms")
    put("bench.self_s", self_s("bench.claim") * per, "s/claim")
    accounted = sum(row[2] for row in totals.values())
    put("trace.accounted_share", accounted / traced_wall if traced_wall else 0.0, "ratio")
    # batches 2j (traced) and 2j+1 (untraced) aim at the same indices
    pairs = [(batches[i], batches[i + 1]) for i in range(0, len(batches) - 1, 2)
             if batches[i][3] and batches[i + 1][3]]
    untraced = sum(u[1] for _, u in pairs)
    put("trace.overhead", sum(t[1] for t, _ in pairs) / untraced if untraced else 0.0, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
