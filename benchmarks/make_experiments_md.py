"""Assemble EXPERIMENTS.md from the generated experiment reports.

Usage::

    python -m benchmarks.run_all          # refresh benchmarks/results/
    python -m benchmarks.make_experiments_md
"""

from __future__ import annotations

import os
import sys

from ._common import RESULTS_DIR

HEADER = """\
# EXPERIMENTS — paper vs measured

The paper (a workshop middleware design paper) contains **no measurement
tables**; its evaluation is Figures 1–7 plus comparative performance
claims in prose.  Every experiment below regenerates one figure's
scenario or quantifies one claim; absolute numbers come from this
repository's deterministic network simulator, so only the *shape*
(who wins, by what order of magnitude, where behaviour flips) is
comparable with the paper.

Regenerate everything with::

    python -m benchmarks.run_all                 # tables below
    pytest benchmarks/ --benchmark-only          # timings + shape assertions

"""

#: experiment id -> (title, verdict commentary)
COMMENTARY = {
    "fig1": (
        "Figure 1 — schema / query pattern / advertisement formalism",
        "Reproduced exactly: the extracted query pattern carries the "
        "end-point classes from the schema and the RVL view's footprint "
        "is the advertised fragment.",
    ),
    "fig2": (
        "Figure 2 — routing annotation",
        "Reproduced exactly, including P4's annotation through "
        "prop4 ⊑ prop1 subsumption and the class-narrowing rewrite.",
    ),
    "fig3": (
        "Figure 3 — plan generation and channel deployment",
        "Reproduced exactly: the generated plan string equals the "
        "paper's, and the executor deploys one channel per contacted "
        "peer — P4, which answers both path patterns, gets both subplans "
        "over its one channel ('only one channel is of course created').",
    ),
    "fig4": (
        "Figure 4 — optimisation (distribution + TR1/TR2)",
        "Reproduced exactly: Plan 2 is the 9-way union of pairwise "
        "joins, Plan 3 merges the P1 and P4 subplans; subplans shipped "
        "drop 18 -> 16 as in the paper's narrative.",
    ),
    "fig5": (
        "Figure 5 — data vs query shipping",
        "All three qualitative rules hold: slow coordinator links and "
        "big intermediate results favour query shipping, loaded remote "
        "peers favour data shipping; the crossover appears in the sweep.",
    ),
    "fig6": (
        "Figure 6 — hybrid architecture flow",
        "Reproduced: one routing round-trip at the super-peer, channels "
        "only to the three relevant peers, a complete (hole-free) plan, "
        "and the six expected answer rows.",
    ),
    "fig7": (
        "Figure 7 — ad-hoc architecture flow",
        "Reproduced: P1's Plan 1 and P2's Plan 2 match the paper "
        "verbatim; P3's branch fails exactly as in the figure; results "
        "flow back through P2.",
    ),
    "son-vs-flood": (
        "Sections 1/3 — SON routing vs flooding",
        "Shape holds: flooding contacts every peer and its message count "
        "grows with network size (6–16x the SON cost here); SON routing "
        "contacts only the relevant ~20%.",
    ),
    "fine-adv": (
        "Section 2.2 — fine vs coarse advertisements",
        "Shape holds: active-schemas eliminate irrelevant query "
        "processing (0% wasted vs ~21%) and lower mean per-peer load, at "
        "a one-off advertisement-size cost — the trade-off the paper "
        "acknowledges.",
    ),
    "index-maint": (
        "Section 4 — index vs active-schema maintenance",
        "Shape holds and widens with churn: the full data index pays one "
        "message per update while advertisements refresh only on "
        "intensional changes (12x at 100 updates, >1600x at 10k).",
    ),
    "live-maint": (
        "Section 4 live plane (extension) — incremental advertisement "
        "maintenance",
        "Shape holds through a running deployment: under seeded live "
        "update streams, purely extensional churn moves *zero* "
        "advertisement traffic (the full re-derive baseline re-pushes "
        "every advertisement every batch), and even when churn "
        "genuinely flips the intensional footprint, shipping deltas "
        "costs ~6-7x fewer advertisement bytes than republishing. "
        "CI asserts >=5x fewer messages and bytes at update rates "
        "<=10% of the base per revision.",
    ),
    "routing-cache": (
        "repro.cache (extension) — routing/plan caching under churn",
        "Warm signature-keyed lookups answer repeated (even alpha-renamed) "
        "queries orders of magnitude faster than cold routing, while "
        "scoped invalidation confines churn cost to the entries a "
        "mutation can actually affect; coherence is property-tested "
        "against cold routing over arbitrary join/Goodbye/refresh "
        "interleavings.",
    ),
    "adapt": (
        "Section 2.5 — run-time adaptability",
        "Shape holds: with replanning the query survives 1–3 peer "
        "failures (losing only the dead peers' rows, spending extra "
        "messages); without it any failure kills the query.",
    ),
    "depth": (
        "Section 3.2 — k-depth neighbourhood discovery",
        "Shape holds as a staircase: a provider k hops behind empty "
        "peers is reachable exactly when the discovery depth reaches k, "
        "with message cost growing in the depth.",
    ),
    "opt-scale": (
        "Section 2.5 — optimisation benefit at scale",
        "Shape holds: distribution caps every join input at one peer's "
        "result size regardless of SON width, and TR1/TR2 replace an "
        "overlap peer's two full scans with one small local-join result.",
    ),
    "phased": (
        "Section 2.5 (extension) — ubQL discard vs phased execution",
        "Both policies return identical answers; the phased alternative "
        "salvages the failed phase's completed scans, re-shipping roughly "
        "half the subplans the discard policy does under failure.",
    ),
    "topn": (
        "Section 5 (extension) — Top-N / broadcast-constrained queries",
        "The predicted trade-off curve appears: tightening the per-pattern "
        "peer bound monotonically lowers subplans, bytes and completeness, "
        "and every bounded answer stays sound.",
    ),
    "topk-cancel": (
        "Section 5 live plane (extension) — any-k early termination",
        "The predicted curve appears: with top-k cancel on, the "
        "coordinator discards remaining channels the ubQL way "
        "(ChangePlanPacket) once k results are stable, so smaller k "
        "terminates paced binding streams earlier — batches saved "
        "shrink monotonically from k=1 to unbounded, the k answers are "
        "always drawn from the exact answer set, and ORDER BY queries "
        "never cancel (sorted top-k needs every candidate).",
    ),
    "dht": (
        "Section 5 / footnote 2 (extension) — schema DHT with subsumption",
        "Lookups resolve all relevant peers — including subsumption-only "
        "advertisers (prop4 for a prop1 query) — in O(log N) overlay hops "
        "regardless of network distance.",
    ),
    "pipeline": (
        "Section 2.5 (extension) — pipelined plan evaluation",
        "Incremental joins over streamed chunks materialise first rows at "
        "a constant early point while blocking completion scales with the "
        "stream duration — a head start growing to ~98%; answers identical.",
    ),
    "batch": (
        "Section 2.5 (extension) — batched execution",
        "Shipping bindings in batches pays channel cost per batch instead "
        "of per binding: at batch size 256 the ~500-row sweep query needs "
        ">10x fewer simulator messages than per-binding shipping, with "
        "every row of the batch-size x cost_based sweep returning the "
        "centralized answer. There is one engine (dictionary-encoded "
        "columnar) and one wire table (each distinct term once per "
        "packet, cells as positions into that list), and a channel "
        "answers with one stream (its statistics ride on the first data "
        "packet), so against earlier revisions of this file the message, "
        "byte and virtual-time cells of every experiment moved (PR 14: "
        "bytes; PR 17: one message less per channel and fewer bytes; "
        "PR 21: one channel per destination instead of one per subplan, "
        "so a peer answering several path patterns costs two messages; "
        "then each shipped subplan returning only the columns its "
        "channel root reads, distinct rows only, its packet's tables "
        "sharing one term list: fewer rows, packets and bytes). "
        "History: when the "
        "scalar binding-at-a-time engine still existed, this sweep "
        "measured the encoded engine under the cost-based planner at "
        "14-25x over it on the full workload (PR 9, commit 1573fa7).",
    ),
    "churn": (
        "Sections 1/2.2/2.5 (extension) — query stream under churn",
        "Redundancy plus replanning sustain the stream: graceful leaves "
        "(Goodbye withdrawal) actually reduce traffic, while crashes more "
        "than double it through failed channels and replans.",
    ),
    "chaos": (
        "Sections 1/2.5 (extension) — resilience under realistic faults",
        "With omniscient failure bounces replaced by silent drops, the "
        "resilience layer (acks/retransmits, heartbeat suspicion, "
        "quarantine, bounded replanning, coverage-annotated partials) "
        "keeps ≥90% of queries fully answered through 10–20% message "
        "loss plus a mid-query crash/recovery; same-seed runs replay "
        "bit-for-bit.",
    ),
    "obs-overhead": (
        "repro.obs (extension) — observability tax",
        "Not a paper figure: the cost of leaving tracing and histogram "
        "metrics on by default. Trace contexts ride messages as uncharged "
        "metadata, so *no simulated quantity* moves (messages, bytes, "
        "per-kind counts, answer rows and virtual time are bit-identical "
        "with the recorder on or off — asserted, not assumed). The "
        "real-CPU cost of minting ~14 spans plus histogram observations "
        "per Figure 6 run measures at ~3–4.5% (median of GC-quiesced "
        "paired CPU-time ratios; wall-clock best-of was tried first and "
        "swings ±30% on a shared machine, far above the effect). CI "
        "bounds it below 5%.",
    ),
    "local-eval": (
        "Substrate microbenchmark — entailed local evaluation",
        "Not a paper figure: baseline throughput of the layers the "
        "distributed machinery stands on, recorded so substrate "
        "regressions are visible in isolation.",
    ),
    "concurrency": (
        "repro.scenario open-loop arrivals (extension) — concurrent serving",
        "Not a paper figure: the middleware serves, it doesn't just "
        "answer. Open-loop arrivals offer rising load to one cold-"
        "cache hybrid deployment with fair per-query scheduling (one "
        "local work unit per virtual time unit of peer CPU). "
        "Concurrency pays — ≥8 queries in flight complete ~3x more "
        "queries per virtual time than the seed's one-at-a-time regime "
        "— but unbounded overload balloons the tail (p99 ~9x "
        "sequential). Admission control (2 active + 2 queued per "
        "coordinator) sheds the excess with a retry-after and keeps "
        "the served p99 well under the unbounded tail. Every answered "
        "query is differentially verified identical to sequential "
        "execution by the 200-workload concurrent difftest sweep.",
    ),
    "transport": (
        "repro.transport (extension) — live TCP deployment vs simulator",
        "Not a paper figure: the credibility check for everything above. "
        "The protocol stack runs unchanged over a pluggable transport; "
        "`python -m repro launch` deploys the cluster as real OS "
        "processes exchanging length-prefixed JSON frames over localhost "
        "TCP, bootstrapped from a seed node. Every answer the live "
        "cluster returns — rows, error strings and coverage annotations "
        "alike — is identical to the virtual-clock simulator's (0 "
        "divergences here; 60 seeded workload queries plus a mid-run "
        "SIGTERM compared exactly in tests/difftest/test_transport.py). "
        "The live wait is event-driven, so a localhost query answers in "
        "a few milliseconds (3.4 ms p50 here, 101.8 ms when the launcher "
        "polled at a 100 ms quantum); the simulator stays ~5.6x faster "
        "per query in wall-clock (1515 vs 269 q/s) and needs no "
        "process spawn, which is why it remains the default dev loop.",
    ),
    "membership": (
        "repro.membership (extension) — churn with durable recovery",
        "Not a paper figure: dynamic membership on top of the live "
        "transport. A peer SIGKILLed mid-workload leaves honest "
        "coverage-annotated partials behind; restarted (supervised "
        "exponential-backoff respawn in `launch --supervise`), it "
        "recovers its base, views and remembered advertisements from "
        "its durable snapshot + checksummed membership log, "
        "re-advertises with a rejoin flag that lifts quarantines "
        "SON-wide, and the very next answers are full again — "
        "byte-identical to the in-sim twin across 60 seeded churn "
        "queries (tests/difftest/test_membership.py). Log replay "
        "stays linear in committed records.",
    ),
    "telemetry": (
        "repro.obs.telemetry (extension) — live cluster telemetry",
        "Not a paper figure: the telemetry plane over both runtimes. "
        "Every peer serves /metrics, /healthz and /tracez off its "
        "transport event loop; the launcher scrapes mid-run into a "
        "per-line-flushed timeline.jsonl that survives a SIGKILLed "
        "launcher, and declarative SLO monitors (p99 latency, shed "
        "rate, availability, partial rate) emit firing/resolved "
        "transitions into the timeline and report.json. Being strictly "
        "pull-based, a probed run's metric snapshot is identical to an "
        "unprobed one's (asserted, not assumed); an in-sim probe "
        "sample costs microseconds, a live scrape round a couple of "
        "milliseconds, and the timeline stays well under 2 KiB per "
        "peer per round.",
    ),
}

ORDER = list(COMMENTARY)


def main() -> int:
    parts = [HEADER]
    for experiment_id in ORDER:
        title, verdict = COMMENTARY[experiment_id]
        path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
        if not os.path.exists(path):
            print(f"missing report {path}; run `python -m benchmarks.run_all`",
                  file=sys.stderr)
            return 1
        with open(path) as handle:
            body = handle.read().rstrip()
        parts.append(f"## {title}\n\n**Verdict.** {verdict}\n\n```\n{body}\n```\n")
    out_path = os.path.join(os.path.dirname(RESULTS_DIR), "..", "EXPERIMENTS.md")
    out_path = os.path.normpath(out_path)
    with open(out_path, "w") as handle:
        handle.write("\n".join(parts))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
