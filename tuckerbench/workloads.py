"""The benchmark's three workloads and their correctness oracle.

Each workload names one public process-parallel driver, its
sequential ``repro.core`` counterpart, the input generator and the
wire.  The seed given on the command line seeds both the dataset
generator and the solver.  See README.md for why each was chosen.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.hooi import HOOIOptions, hooi
from repro.core.rank_adaptive import RankAdaptiveOptions, rank_adaptive_hooi
from repro.core.sthosvd import sthosvd
from repro.datasets.simulation import hcci_like, miranda_like
from repro.distributed.mp_hooi import mp_hooi_dt, mp_rahosi_dt
from repro.distributed.mp_sthosvd import mp_sthosvd
from repro.tensor.ops import multi_ttm

#: Ranks per workload: every grid has two cells, so with two cores
#: there are never more rank processes than cores.
RANKS = 2

#: Relative tolerance of the ``latency-hooi`` contract: the mp error
#: must equal ``core.hooi``'s within this share.
HOOI_MATCH_RTOL = 1e-10

#: Per-solve deadline handed to the drivers; a solve that hits it
#: raises and is counted as failed.
SOLVE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: public entry points: the process-parallel driver and its
    #: sequential counterpart (names of the bench spans around them).
    driver: str
    seq_driver: str
    wire: str
    eps: float | None
    generator: str
    make_input: Callable[[int], np.ndarray]
    #: ``solve(x, seed, comm_config, profile_out)`` -> (tucker, stats|None)
    solve: Callable[..., tuple[Any, Any]]
    #: ``sequential(x, seed)`` -> (tucker, stats with phase_seconds)
    sequential: Callable[[np.ndarray, int], tuple[Any, Any]]
    why: str


def _miranda_ra_input(seed: int) -> np.ndarray:
    # float32 is the generator's native dtype; do not cast (README:
    # "known defect").
    return miranda_like(256, seed=seed)


def _miranda_ra_solve(x, seed, comm_config=None, profile_out=None):
    return mp_rahosi_dt(
        x,
        0.01,
        (9, 9, 9),
        (2, 1, 1),
        RankAdaptiveOptions(max_iters=3, seed=seed),
        transport="shm",
        timeout=SOLVE_TIMEOUT_S,
        comm_config=comm_config,
        profile_out=profile_out,
    )


def _miranda_ra_seq(x, seed):
    return rank_adaptive_hooi(
        x, 0.01, (9, 9, 9), RankAdaptiveOptions(max_iters=3, seed=seed)
    )


def _latency_input(seed: int) -> np.ndarray:
    return miranda_like(48, seed=seed).astype(np.float64)


def _latency_solve(x, seed, comm_config=None, profile_out=None):
    return mp_hooi_dt(
        x,
        (4, 4, 4),
        (2, 1, 1),
        HOOIOptions(max_iters=30, seed=seed),
        transport="shm",
        timeout=SOLVE_TIMEOUT_S,
        comm_config=comm_config,
        profile_out=profile_out,
    )


def _latency_seq(x, seed):
    return hooi(x, (4, 4, 4), HOOIOptions(max_iters=30, seed=seed))


def _hcci_input(seed: int) -> np.ndarray:
    return hcci_like((96, 96, 9, 64), seed=seed)


def _hcci_solve(x, seed, comm_config=None, profile_out=None):
    tucker = mp_sthosvd(
        x,
        (2, 1, 1, 1),
        eps=0.01,
        transport="tcp",
        timeout=SOLVE_TIMEOUT_S,
        comm_config=comm_config,
        profile_out=profile_out,
    )
    return tucker, None


def _hcci_seq(x, seed):
    return sthosvd(x, eps=0.01, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "miranda-ra",
            "mp_rahosi_dt",
            "rank_adaptive_hooi",
            "shm",
            0.01,
            "miranda_like(256) float32",
            _miranda_ra_input,
            _miranda_ra_solve,
            _miranda_ra_seq,
            "RA-HOSI-DT at the tightest Miranda eps; rank growth, core "
            "analysis and tree reset; kernel-bound, few messages",
        ),
        Workload(
            "latency-hooi",
            "mp_hooi_dt",
            "hooi",
            "shm",
            None,
            "miranda_like(48) cast to float64",
            _latency_input,
            _latency_solve,
            _latency_seq,
            "HOOI-DT, 30 iterations of tiny messages below shm_min_bytes; "
            "latency-bound, negligible kernel time",
        ),
        Workload(
            "hcci-sthosvd-tcp",
            "mp_sthosvd",
            "sthosvd",
            "tcp",
            0.01,
            "hcci_like((96,96,9,64)) float64",
            _hcci_input,
            _hcci_solve,
            _hcci_seq,
            "STHOSVD baseline over tcp; bulk bytes in few messages, "
            "Gram+EVD LLSV, no dimension tree",
        ),
    )
}


# -- oracle -----------------------------------------------------------------


def output_digest(tucker) -> str:
    """Digest of a decomposition's bits: the drivers are deterministic,
    so equal digests mean equal outputs and the oracle runs once per
    distinct digest."""
    h = hashlib.blake2b(digest_size=16)
    for a in (tucker.core, *tucker.factors):
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.data)
    return h.hexdigest()


def true_error(x: np.ndarray, tucker) -> float:
    """``||X - X^|| / ||X||`` with both sides in float64."""
    xh = multi_ttm(
        tucker.core.astype(np.float64),
        [u.astype(np.float64) for u in tucker.factors],
    )
    x64 = x.astype(np.float64, copy=False)
    xh -= x64
    return float(np.linalg.norm(xh.ravel()) / np.linalg.norm(x64.ravel()))


def claimed_error(stats) -> float | None:
    """The error the rank-adaptive driver believes it reached."""
    history = getattr(stats, "history", None)
    if not history:
        return None
    last = history[-1]
    return last.truncated_error if last.truncated_ranks else last.error


@dataclass
class Verdict:
    ok: bool
    #: "" when ok; "known-float32-defect" for the documented float32
    #: error-identity violation; anything else is unexpected.
    kind: str
    rel_error: float
    ranks: tuple[int, ...]
    detail: str


def check(
    w: Workload,
    x: np.ndarray,
    tucker,
    stats,
    seq_tucker,
    seq_error: float,
) -> Verdict:
    """Apply the workload's numerical contract to one distinct output.

    ``miranda-ra`` and ``hcci-sthosvd-tcp``: true error <= eps and the
    same ranks as the sequential driver.  ``latency-hooi``: true error
    equal to ``core.hooi``'s within :data:`HOOI_MATCH_RTOL`.
    """
    err = true_error(x, tucker)
    ranks = tuple(int(r) for r in tucker.ranks)
    seq_ranks = tuple(int(r) for r in seq_tucker.ranks)
    if not math.isfinite(err):
        return Verdict(False, "non-finite-error", err, ranks, f"error {err}")
    if w.eps is None:
        gap = abs(err - seq_error)
        if gap <= HOOI_MATCH_RTOL * abs(seq_error):
            return Verdict(True, "", err, ranks, "")
        return Verdict(
            False,
            "hooi-mismatch",
            err,
            ranks,
            f"true error {err:.12g} vs core.hooi {seq_error:.12g}",
        )
    if ranks != seq_ranks:
        return Verdict(
            False,
            "rank-mismatch",
            err,
            ranks,
            f"ranks {ranks} vs sequential {seq_ranks}",
        )
    if err <= w.eps:
        return Verdict(True, "", err, ranks, "")
    claimed = claimed_error(stats)
    if x.dtype == np.float32 and claimed is not None and claimed <= w.eps:
        return Verdict(
            False,
            "known-float32-defect",
            err,
            ranks,
            f"claimed error {claimed:.5f} <= eps {w.eps} but true error "
            f"{err:.5f} > eps at ranks {ranks} (sequential driver: same "
            "ranks); the error identity ||X||^2-||G||^2 is evaluated "
            "in float32",
        )
    return Verdict(
        False,
        "eps-violation",
        err,
        ranks,
        f"true error {err:.5f} > eps {w.eps}, claimed {claimed}",
    )


class Oracle:
    """Collects outputs by digest; checks each distinct one once."""

    def __init__(self, w: Workload, x: np.ndarray) -> None:
        self.w, self.x = w, x
        self.outputs: dict[str, tuple] = {}
        self.counts: dict[str, int] = {}
        self.errors: list[str] = []
        self.seq_digests: set[str] = set()
        self.seq_out = None

    def add(self, tucker, stats) -> None:
        d = output_digest(tucker)
        self.outputs.setdefault(d, (tucker, stats))
        self.counts[d] = self.counts.get(d, 0) + 1

    def add_seq(self, tucker, stats) -> None:
        self.seq_digests.add(output_digest(tucker))
        if self.seq_out is None:
            self.seq_out = (tucker, stats)

    def verdicts(self) -> dict:
        seq_tucker, _ = self.seq_out
        seq_error = true_error(self.x, seq_tucker)
        attempted = sum(self.counts.values()) + len(self.errors)
        failed = len(self.errors)
        unexpected = list(self.errors)
        rows = []
        for d, (tucker, stats) in self.outputs.items():
            v = check(self.w, self.x, tucker, stats, seq_tucker, seq_error)
            if not v.ok:
                failed += self.counts[d]
                if v.kind != "known-float32-defect":
                    unexpected.append(f"{v.kind}: {v.detail}")
            rows.append(
                {
                    "digest": d,
                    "solves": self.counts[d],
                    "ok": v.ok,
                    "kind": v.kind,
                    "rel_error": v.rel_error,
                    "ranks": list(v.ranks),
                    "compression_ratio": tucker.compression_ratio(),
                    "detail": v.detail,
                }
            )
        if len(self.seq_digests) > 1:
            unexpected.append("sequential driver gave different outputs")
        return {
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted if attempted else 1.0,
            "unexpected": unexpected,
            "outputs": rows,
            "seq_rel_error": seq_error,
            "seq_ranks": [int(r) for r in seq_tucker.ranks],
            "exceptions": self.errors,
        }
