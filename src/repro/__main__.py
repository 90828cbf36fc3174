"""Command-line interface: ``python -m repro <command>``.

Eight commands mirror the attacker workflow on the simulated platform:

* ``train``  — profile a clone device and train a locator, saving it to
  an ``.npz`` artefact;
* ``locate`` — load a locator, capture an attack session, and report the
  located CO starts against the simulator's ground truth;
* ``attack`` — the full Table-II flow: locate, align, CPA, key recovery;
* ``bench``  — sweep scenarios (cipher x RD x interleaving x SNR) through
  the batched :class:`~repro.runtime.ExperimentEngine` and print a
  Table-II-style summary;
* ``campaign`` — a streaming attack campaign: capture batches flow into a
  constant-memory online distinguisher (and optionally an on-disk trace
  store), with geometric key-rank checkpoints and early stopping;
  re-running with the same ``--store`` resumes where the store left off,
  ``--workers N`` fans deterministically seeded trace shards out over a
  process pool (merging the accumulators at every checkpoint), and
  ``--distinguisher`` picks the attack statistic — first-order ``cpa`` /
  ``dpa``, ``lra``, the second-order ``cpa2`` that defeats the masked
  AES target, or the profiled ``template`` / ``nnp`` (which need
  ``--profile DIR``);
* ``profile`` — the profiling phase of a profiled attack: capture
  known-key traces into a store, rank POIs, fit Gaussian templates or
  per-byte NN classifiers, and save a reusable profile directory;
* ``assess`` — SNR / Welch-t (TVLA-style) leakage maps over a known-key
  trace store, with the customary |t| > 4.5 leakage verdict;
* ``tvla``   — the non-specific fixed-vs-random TVLA: interleaved capture
  of the two populations straight off the platform (no pre-existing
  store needed), a streaming Welch-t verdict, and ``--grid`` to sweep
  the built-in countermeasure matrix (baseline, shuffling, RD+jitter,
  first- and second-order masking) in one command.

The capture countermeasures stack via ``--countermeasure`` (``shuffle``,
``jitter``/``jitter-N``, comma-separated, on top of ``--rd``) and
``--masking-order 2`` for the three-share masked AES datapath.

Parallel campaigns (``campaign``/``tvla`` with ``--workers``) are fault
tolerant: failed shards retry with exponential backoff (``--max-retries``
/ ``--retry-backoff``), hung shards are cancelled by the ``--shard-timeout``
watchdog, and a run whose shards exhaust their retries exits 3 with a
partial result over the merged prefix (exit 4 when no shard completed at
all; re-running the same command resumes just the missing work).
``--status`` prints the campaign journal kept under ``--store``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.config import default_config
from repro.core.locator import CryptoLocator
from repro.evaluation import match_hits
from repro.evaluation.experiments import default_tolerance
from repro.soc import SimulatedPlatform


def _parse_window(text: str) -> tuple[int, int]:
    """Parse a ``START:STOP`` sample-window argument."""
    try:
        start, stop = text.split(":")
        return int(start), int(stop)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP sample window, got {text!r}"
        ) from None


_COUNTERMEASURE_CHOICES = "none, shuffle, jitter, jitter-N (N in 1..99)"


def _parse_countermeasures(text: str | None) -> tuple[bool, int] | None:
    """Parse ``--countermeasure`` into ``(shuffle, jitter_strength)``.

    Accepts a comma-separated combination of ``none``, ``shuffle``,
    ``jitter`` (strength 10) and ``jitter-N``.  Prints the valid choices
    and returns ``None`` for anything else — the caller exits 2.
    """
    shuffle = False
    jitter = 0
    for token in (text or "none").split(","):
        token = token.strip().lower()
        if token in ("", "none"):
            continue
        if token == "shuffle":
            shuffle = True
        elif token == "jitter":
            jitter = 10
        elif token.startswith("jitter-"):
            try:
                jitter = int(token[len("jitter-"):])
            except ValueError:
                jitter = -1
            if not 1 <= jitter <= 99:
                print(f"invalid jitter strength in {token!r}; valid "
                      f"countermeasures: {_COUNTERMEASURE_CHOICES}",
                      file=sys.stderr)
                return None
        else:
            print(f"unknown countermeasure {token!r}; valid choices: "
                  f"{_COUNTERMEASURE_CHOICES}", file=sys.stderr)
            return None
    return shuffle, jitter


def _distinguisher_spec(args: argparse.Namespace, cipher: str | None = None):
    """Validate the distinguisher CLI options into a buildable spec.

    Prints the valid choices and returns ``None`` (the caller exits 2) for
    unknown distinguisher / leakage-model names or inconsistent options —
    the registry raises ``ValueError`` listing the valid names, so one
    ``spec.build()`` probe covers every combination.
    """
    from repro.attacks.distinguishers import (
        DistinguisherSpec,
        masked_aes_windows,
    )

    window1 = getattr(args, "window1", None)
    window2 = getattr(args, "window2", None)
    aggregate = args.aggregate
    profile = getattr(args, "profile", None)
    if args.distinguisher in ("template", "nnp") and aggregate != 1:
        # Profiles score the raw sample space they were built in.
        aggregate = 1
        print(f"{args.distinguisher} scores the profile's sample space; "
              f"aggregate forced to 1")
    if args.distinguisher == "cpa2" and window1 is None and window2 is None:
        if cipher != "aes_masked":
            print("cpa2 needs --window1/--window2 sample windows (they are "
                  "derived automatically only for --cipher aes_masked)",
                  file=sys.stderr)
            return None
        if getattr(args, "rd", 0) != 0:
            print("cpa2 window derivation needs --rd 0: random delay "
                  "smears the two op windows apart, so the sample pairing "
                  "(and the attack) breaks under RD-2/RD-4",
                  file=sys.stderr)
            return None
        countermeasures = _parse_countermeasures(
            getattr(args, "countermeasure", None)
        )
        if countermeasures is None:
            return None
        if countermeasures != (False, 0):
            print("cpa2 window derivation needs a deterministic op layout: "
                  "shuffling permutes the two op windows and clock jitter "
                  "drifts the sample grid, so the fixed sample pairing "
                  "breaks under --countermeasure shuffle/jitter",
                  file=sys.stderr)
            return None
        shares = getattr(args, "masking_order", 1) + 1
        window1, window2 = masked_aes_windows(shares=shares)
        # The derived windows live in raw sample space; aggregation would
        # shift them.
        aggregate = 1
        print(f"cpa2 windows (derived, {shares} shares): "
              f"{window1[0]}:{window1[1]} x "
              f"{window2[0]}:{window2[1]}, aggregate forced to 1")
    spec = DistinguisherSpec(
        name=args.distinguisher,
        leakage_model=args.leakage_model,
        aggregate=aggregate,
        window1=window1,
        window2=window2,
        basis=getattr(args, "basis", "bits"),
        profile=profile,
    )
    try:
        spec.build()
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None
    return spec


def _check_profile_target(spec, args: argparse.Namespace) -> int | None:
    """Cross-check a profiled spec against the campaign's target options.

    Returns the profile's segment length (for defaulting
    ``--segment-length``) or ``None`` after printing the mismatch — a
    profile built on one cipher/RD configuration scores garbage on
    another, so refusing beats silently diverging.
    """
    from repro.profiled import load_manifest

    try:
        manifest = load_manifest(spec.profile)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return None
    meta = manifest.get("meta", {})
    for option in ("cipher", "rd"):
        profiled = meta.get(option)
        requested = getattr(args, option)
        if profiled is not None and profiled != requested:
            print(f"profile {spec.profile} was built on "
                  f"--{option} {profiled}, campaign targets "
                  f"--{option} {requested}", file=sys.stderr)
            return None
    segment_length = int(manifest["segment_length"])
    if args.segment_length is not None and args.segment_length != segment_length:
        print(f"profile {spec.profile} was built on {segment_length}-sample "
              f"segments; --segment-length {args.segment_length} cannot be "
              f"scored against it", file=sys.stderr)
        return None
    return segment_length


def _add_fault_tolerance_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="failed-shard retry budget before the campaign degrades to a "
             "partial result (default 2; only with --workers)")
    parser.add_argument(
        "--retry-backoff", type=float, default=None,
        help="base seconds of exponential per-shard retry backoff "
             "(default 0.5; only with --workers)")
    parser.add_argument(
        "--shard-timeout", type=float, default=None,
        help="per-shard wall-clock watchdog in seconds; hung shards are "
             "cancelled and requeued (only with --workers)")
    parser.add_argument(
        "--status", action="store_true",
        help="report the campaign journal under --store and exit")


def _add_capture_mode_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--capture-mode", default="exact", choices=("exact", "fast"),
        help="capture randomness path: 'exact' is bit-identical to the "
             "scalar reference, 'fast' draws batch randomness in bulk "
             "(statistically identical stream, much faster capture)")


def _add_countermeasure_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--countermeasure", default="none",
        help=f"software/clock countermeasures on top of the random delay, "
             f"comma-separated: {_COUNTERMEASURE_CHOICES}")
    parser.add_argument(
        "--masking-order", type=int, default=1, choices=(1, 2),
        help="boolean masking order for --cipher aes_masked "
             "(2 = three-share second-order datapath)")


def _resolve_countermeasures(
    args: argparse.Namespace, ciphers=None
) -> tuple[bool, int] | None:
    """Validate the countermeasure options against the other target options.

    Returns ``(shuffle, jitter)`` or ``None`` after printing the problem
    (unknown name, masking order on an unmasked cipher, jitter under fast
    capture) — the caller exits 2.
    """
    ciphers = list(ciphers) if ciphers is not None else [args.cipher]
    countermeasures = _parse_countermeasures(
        getattr(args, "countermeasure", None)
    )
    if countermeasures is None:
        return None
    shuffle, jitter = countermeasures
    unmasked = [c for c in ciphers if c != "aes_masked"]
    if getattr(args, "masking_order", 1) != 1 and unmasked:
        print(f"--masking-order {args.masking_order} needs cipher "
              f"aes_masked; {', '.join(unmasked)} has no masked datapath",
              file=sys.stderr)
        return None
    unshuffleable = [c for c in ciphers if c != "aes"]
    if shuffle and unshuffleable:
        print(f"--countermeasure shuffle is only wired for cipher aes "
              f"({', '.join(unshuffleable)} declares no shuffle groups)",
              file=sys.stderr)
        return None
    if jitter and getattr(args, "capture_mode", "exact") == "fast":
        print("--countermeasure jitter resamples whole traces and is not "
              "supported with --capture-mode fast", file=sys.stderr)
        return None
    return shuffle, jitter


def _check_store_config(path, capture_mode: str, countermeasure: str) -> bool:
    """Refuse resuming a store captured under a different configuration.

    Probes the existing store's manifest *before* ``open_or_create`` gets
    to enforce the capture key, so the user sees which configuration
    knob actually diverged (the countermeasure TRNG also shifts the
    derived key, which would otherwise surface as an opaque key
    mismatch).  Returns ``False`` after printing when the store holds
    traces from another capture mode or countermeasure stack.
    """
    from repro.campaign import TraceStore

    try:
        store = TraceStore.open(path)
    except FileNotFoundError:
        return True
    if not len(store):
        return True
    stored_mode = store.meta.get("capture_mode", "exact")
    if stored_mode != capture_mode:
        print(f"{path} was captured in {stored_mode!r} capture mode; "
              f"resuming it in {capture_mode!r} would splice two "
              f"different trace streams", file=sys.stderr)
        return False
    stored_cm = store.meta.get("countermeasure")
    if stored_cm is not None and stored_cm != countermeasure:
        print(f"{path} was captured under countermeasure {stored_cm!r}; "
              f"resuming it under {countermeasure!r} would splice two "
              f"different trace streams", file=sys.stderr)
        return False
    return True


def _add_distinguisher_options(
    parser: argparse.ArgumentParser, windows: bool = True
) -> None:
    parser.add_argument("--distinguisher", default="cpa",
                        help="attack statistic: cpa, dpa, cpa2 "
                             "(second-order, vs masking) or lra")
    parser.add_argument("--leakage-model", default=None,
                        help="leakage hypothesis (hw, msb, lsb, identity, "
                             "hd); default: the distinguisher's own")
    parser.add_argument("--basis", default="bits",
                        help="LRA regression basis (bits or hw)")
    parser.add_argument("--profile", default=None,
                        help="saved profile directory for the profiled "
                             "distinguishers (template / nnp); create one "
                             "with `repro profile`")
    if windows:
        parser.add_argument("--window1", type=_parse_window, default=None,
                            help="cpa2 first sample window, START:STOP")
        parser.add_argument("--window2", type=_parse_window, default=None,
                            help="cpa2 second sample window, START:STOP")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cipher", default="aes",
                        choices=("aes", "aes_masked", "camellia", "clefia", "simon"))
    parser.add_argument("--rd", type=int, default=4, choices=(0, 2, 4),
                        help="random-delay configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1 / 32,
                        help="dataset scale relative to Table I")


def cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: profile a clone and persist a trained locator."""
    config = default_config(args.cipher, dataset_scale=args.scale)
    clone = SimulatedPlatform(args.cipher, max_delay=args.rd, seed=args.seed)
    locator = CryptoLocator(config, seed=args.seed + 1)
    print(f"training {args.cipher} locator under RD-{args.rd} ...")
    history = locator.fit_from_platform(clone, verbose=True)
    locator.save(args.output)
    print(f"best epoch {history.best_epoch}; saved to {args.output}")
    return 0


def _load_locator(args: argparse.Namespace) -> CryptoLocator:
    config = default_config(args.cipher, dataset_scale=args.scale)
    return CryptoLocator(config, seed=args.seed + 1).load(args.model)


def cmd_locate(args: argparse.Namespace) -> int:
    """``repro locate``: find COs in a fresh attack session."""
    locator = _load_locator(args)
    target = SimulatedPlatform(args.cipher, max_delay=args.rd, seed=args.seed + 100)
    session = target.capture_session_trace(
        args.cos, noise_interleaved=not args.consecutive
    )
    starts = locator.locate(session.trace)
    stats = match_hits(starts, session.true_starts, default_tolerance(locator.config))
    print(f"located {starts.size} COs in a {session.trace.size}-sample trace")
    print(f"vs ground truth: {stats}")
    return 0 if stats.hit_rate > 0 else 1


def cmd_attack(args: argparse.Namespace) -> int:
    """``repro attack``: locate, align, and run the CPA key recovery."""
    from repro.attacks.distinguishers import CpaDistinguisher
    from repro.evaluation.experiments import aligned_attack_set

    locator = _load_locator(args)
    target = SimulatedPlatform(args.cipher, max_delay=args.rd, seed=args.seed + 100)
    session = target.capture_session_trace(
        args.cos, noise_interleaved=not args.consecutive
    )
    located = locator.locate(session.trace)
    segments, plaintexts = aligned_attack_set(locator, session, located)
    if segments.shape[0] < 8:
        print("not enough located COs for a CPA", file=sys.stderr)
        return 1
    attack = CpaDistinguisher(aggregate=args.aggregate)
    recovered = attack.batch(segments, plaintexts).recovered_key()
    correct = sum(a == b for a, b in zip(recovered, session.key))
    print(f"true key      : {session.key.hex()}")
    print(f"recovered key : {recovered.hex()}")
    print(f"{correct}/16 key bytes correct")
    return 0 if correct == 16 else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: engine-driven scenario sweep with batched capture."""
    from repro.ciphers import available_ciphers
    from repro.evaluation import format_table
    from repro.runtime import BatchPlan, ExperimentEngine, ScenarioResult

    ciphers = [c.strip() for c in args.ciphers.split(",") if c.strip()]
    unknown = sorted(set(ciphers) - set(available_ciphers()))
    if unknown:
        print(f"unknown cipher(s): {', '.join(unknown)}; "
              f"available: {', '.join(available_ciphers())}", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.distinguisher == "cpa2":
        print("cpa2 needs explicit sample windows; run it through "
              "`repro campaign --distinguisher cpa2`", file=sys.stderr)
        return 2
    if args.distinguisher in ("template", "nnp"):
        print(f"{args.distinguisher} scores fixed profile segments; run it "
              f"through `repro campaign --distinguisher {args.distinguisher} "
              f"--profile DIR`", file=sys.stderr)
        return 2
    countermeasures = _resolve_countermeasures(args, ciphers=ciphers)
    if countermeasures is None:
        return 2
    shuffle, jitter = countermeasures
    distinguisher = _distinguisher_spec(args)
    if distinguisher is None:
        return 2
    plan = BatchPlan.sweep(
        ciphers=ciphers,
        max_delays=[int(r) for r in args.rds.split(",") if r.strip()],
        interleaving=(True, False) if args.scenarios == "both"
        else (args.scenarios == "noise",),
        n_cos=args.cos,
        noise_stds=[float(s) for s in args.noise_stds.split(",") if s.strip()],
        base_seed=args.seed + 100,
        batch_size=args.batch_size,
        shuffle=shuffle,
        jitter=jitter,
        masking_order=args.masking_order,
    )
    engine = ExperimentEngine(
        dataset_scale=args.scale,
        seed=args.seed,
        method=args.engine,
        verbose=True,
        capture_mode=args.capture_mode,
    )
    results = engine.run(plan, with_cpa=args.cpa, aggregate=args.aggregate,
                         distinguisher=distinguisher)
    print()
    print(format_table(
        ScenarioResult.header(),
        [r.row() for r in results],
        title=f"Engine sweep ({len(plan)} scenarios, batch size {plan.batch_size})",
    ))
    worst = min((r.stats.hit_rate for r in results), default=0.0)
    return 0 if worst >= 0.5 else 1


def _campaign_status(store) -> int:
    """``--status``: report the journal under a parallel store root."""
    from pathlib import Path

    from repro.runtime.journal import CampaignJournal

    if store is None:
        print("--status needs --store (the campaign's store root)",
              file=sys.stderr)
        return 2
    root = Path(store)
    if not root.exists():
        print(f"no campaign at {store}: directory does not exist",
              file=sys.stderr)
        return 2
    try:
        journal = CampaignJournal.load(root)
    except FileNotFoundError:
        if (root / "manifest.json").exists():
            print(f"{store} holds a serial trace store (no journal); "
                  f"journals are written by parallel campaigns (--workers)",
                  file=sys.stderr)
        else:
            print(f"no campaign journal under {store}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"{error}; delete journal.json to reset it", file=sys.stderr)
        return 2
    print(journal.describe())
    return 0


def _resolve_fault_tolerance(args) -> tuple[int, float, float | None] | None:
    """Validate the retry flags; ``None`` means reject with exit 2."""
    if args.workers is None and any(
        value is not None
        for value in (args.max_retries, args.retry_backoff, args.shard_timeout)
    ):
        print("--max-retries/--retry-backoff/--shard-timeout apply to the "
              "sharded parallel path; pass --workers", file=sys.stderr)
        return None
    max_retries = 2 if args.max_retries is None else args.max_retries
    backoff = 0.5 if args.retry_backoff is None else args.retry_backoff
    if max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return None
    if backoff < 0:
        print("--retry-backoff must be >= 0", file=sys.stderr)
        return None
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        print("--shard-timeout must be > 0 seconds", file=sys.stderr)
        return None
    return max_retries, backoff, args.shard_timeout


def cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: streaming capture→store→accumulate→rank attack."""
    from repro.campaign import TraceStore
    from repro.evaluation import format_campaign
    from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource
    from repro.soc.platform import PlatformSpec

    if args.status:
        return _campaign_status(args.store)
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    fault_tolerance = _resolve_fault_tolerance(args)
    if fault_tolerance is None:
        return 2
    countermeasures = _resolve_countermeasures(args)
    if countermeasures is None:
        return 2
    shuffle, jitter = countermeasures
    spec = _distinguisher_spec(args, cipher=args.cipher)
    if spec is None:
        return 2
    segment_length = args.segment_length
    if spec.profile is not None:
        segment_length = _check_profile_target(spec, args)
        if segment_length is None:
            return 2
        if args.segment_length is None:
            print(f"segment length {segment_length} (from the profile)")
    platform_spec = PlatformSpec(
        cipher_name=args.cipher, max_delay=args.rd, noise_std=args.noise_std,
        capture_mode=args.capture_mode, shuffle=shuffle, jitter=jitter,
        masking_order=args.masking_order,
    )
    platform = platform_spec.build(args.seed)
    source = PlatformSegmentSource(
        platform, segment_length=segment_length, batch_size=args.batch_size
    )
    if args.workers is not None:
        return _run_parallel_campaign(
            args, source, spec, platform_spec, fault_tolerance
        )
    store = None
    if args.store is not None:
        from repro.runtime.parallel import is_shard_store_root

        if is_shard_store_root(args.store):
            print(f"{args.store} holds per-shard stores from a parallel "
                  f"campaign; resume it with --workers", file=sys.stderr)
            return 2
        if not _check_store_config(args.store, args.capture_mode,
                                   platform.countermeasure_name):
            return 2
        try:
            store = TraceStore.open_or_create(
                args.store,
                n_samples=source.n_samples,
                block_size=source.block_size,
                key=source.true_key,
                meta={"cipher": args.cipher, "rd": args.rd,
                      "seed": args.seed,
                      "capture_mode": args.capture_mode,
                      "countermeasure": platform.countermeasure_name},
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(f"store: {store.path} ({len(store)} traces on disk)")
    campaign = AttackCampaign(
        source,
        store=store,
        first_checkpoint=args.first_checkpoint,
        checkpoint_growth=args.growth,
        rank1_patience=args.patience,
        batch_size=args.batch_size,
        distinguisher=spec,
    )
    if campaign.resumed_from:
        print(f"resumed {campaign.resumed_from} traces from the store")
    print(f"campaign: {args.cipher} RD-{args.rd}, {spec.name} distinguisher, "
          f"{source.n_samples}-sample segments, aggregate {spec.aggregate}, "
          f"<= {args.traces} traces")
    result = campaign.run(args.traces, verbose=True)
    exit_code = _report_campaign(result)
    if store is not None:
        print(f"store now holds {len(store)} traces "
              f"({store.nbytes() / 1e6:.1f} MB on disk)")
    return exit_code


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: known-key profiling campaign → saved profile."""
    from pathlib import Path

    from repro.campaign import TraceStore
    from repro.profiled import (
        ProfilingCampaign,
        fit_nn_profile,
        fit_template_profile,
        masked_byte_pois,
    )
    from repro.runtime.campaign import PlatformSegmentSource
    from repro.soc.platform import PlatformSpec

    countermeasures = _resolve_countermeasures(args)
    if countermeasures is None:
        return 2
    shuffle, jitter = countermeasures
    if shuffle or jitter:
        print("profiling assumes a fixed per-sample operation layout; "
              "shuffling permutes it and clock jitter drifts it, so "
              "--countermeasure shuffle/jitter cannot be profiled",
              file=sys.stderr)
        return 2
    masked = args.cipher == "aes_masked"
    if masked and args.rd != 0:
        print("profiling the masked target needs --rd 0: random delay "
              "smears the share operations apart, so the fixed POI layout "
              "(and the profile) breaks under RD-2/RD-4", file=sys.stderr)
        return 2
    shares = args.masking_order + 1
    model = args.model or ("hd" if masked else "hw")
    segment_length = args.segment_length
    if segment_length is None and masked:
        from repro.attacks.distinguishers import masked_aes_windows

        segment_length = masked_aes_windows(shares=shares)[1][1] + 16
    platform = PlatformSpec(
        cipher_name=args.cipher, max_delay=args.rd, noise_std=args.noise_std,
        capture_mode=args.capture_mode, masking_order=args.masking_order,
    ).build(args.seed)
    source = PlatformSegmentSource(
        platform, segment_length=segment_length, batch_size=args.batch_size
    )
    output = Path(args.output)
    store_path = args.store if args.store is not None else output / "traces"
    if not _check_store_config(store_path, args.capture_mode,
                               platform.countermeasure_name):
        return 2
    try:
        store = TraceStore.open_or_create(
            store_path,
            n_samples=source.n_samples,
            block_size=source.block_size,
            key=source.true_key,
            meta={"cipher": args.cipher, "rd": args.rd, "seed": args.seed,
                  "capture_mode": args.capture_mode,
                  "countermeasure": platform.countermeasure_name},
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    campaign = ProfilingCampaign(
        source, store, model=model, batch_size=args.batch_size
    )
    if campaign.resumed_from:
        print(f"resumed {campaign.resumed_from} traces from the store")
    print(f"profiling: {args.cipher} RD-{args.rd}, {model} classes, "
          f"{source.n_samples}-sample segments, {args.traces} traces")
    result = campaign.run(args.traces, verbose=True)
    print(f"captured in {result.capture_seconds:.1f}s")
    if masked:
        # First-order SNR is blind on the masked target; the POIs come
        # from the known operation layout instead.
        pois = masked_byte_pois(source.block_size, shares=shares)
        print("POIs: share-operation layout (SNR is blind under masking)")
    else:
        pois = result.select_pois(args.pois, min_spacing=args.min_spacing)
        print(f"POIs: top {args.pois} SNR samples per byte")
    meta = {"cipher": args.cipher, "rd": args.rd,
            "noise_std": args.noise_std, "seed": args.seed,
            "masking_order": args.masking_order}
    if args.kind == "template":
        pooled = (not masked) if args.covariance == "auto" \
            else args.covariance == "pooled"
        if masked and pooled:
            print("warning: pooled covariance cannot represent the masked "
                  "target's joint leakage; expect chance-level ranks",
                  file=sys.stderr)
        profile = fit_template_profile(
            result.store, store.key, model=model, pois=pois,
            pooled=pooled, meta=meta,
        )
    else:
        combine = masked if args.combine == "auto" else args.combine == "yes"
        profile = fit_nn_profile(
            result.store, store.key, model=model, pois=pois,
            hidden=args.hidden, combine=combine, epochs=args.epochs,
            batch_size=args.nn_batch_size, lr=args.lr, seed=args.seed,
            meta=meta, verbose=True,
        )
    profile.save(output)
    print(profile.describe())
    print(f"profile saved to {output}")
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    """``repro assess``: SNR / Welch-t leakage maps over a trace store."""
    from repro.attacks.assessment import TVLA_THRESHOLD
    from repro.campaign import TraceStore
    from repro.profiled import ClassStats

    store = TraceStore.open(args.store)
    if store.key is None:
        print(f"{args.store} records no capture key; leakage assessment "
              f"needs known-key (profiling) traces", file=sys.stderr)
        return 2
    if not len(store):
        print(f"{args.store} is empty", file=sys.stderr)
        return 2
    stored_cm = store.meta.get("countermeasure")
    if (args.expect_countermeasure is not None
            and stored_cm != args.expect_countermeasure):
        print(f"{args.store} records countermeasure {stored_cm!r}, not "
              f"{args.expect_countermeasure!r}; assessing it would answer "
              f"a different configuration's question", file=sys.stderr)
        return 2
    stats = ClassStats(store.key, model=args.model)
    for traces, plaintexts in store.iter_chunks(args.batch_size):
        stats.update(traces, plaintexts)
    snr = stats.snr()
    welch_t = stats.welch_t()
    peak_t = float(np.abs(welch_t).max())
    config = f", {stored_cm}" if stored_cm is not None else ""
    print(f"assessed {stats.n_traces} traces x {store.n_samples} samples, "
          f"{args.model} classes{config}")
    print(f"{'byte':>4}  {'max SNR':>9}  {'@sample':>7}  "
          f"{'max |t|':>9}  {'@sample':>7}")
    for b in range(snr.shape[0]):
        s_at = int(snr[b].argmax())
        t_at = int(np.abs(welch_t[b]).argmax())
        print(f"{b:>4}  {snr[b, s_at]:>9.4f}  {s_at:>7}  "
              f"{abs(welch_t[b, t_at]):>9.2f}  {t_at:>7}")
    if args.output is not None:
        np.savez_compressed(args.output, snr=snr, welch_t=welch_t)
        print(f"maps saved to {args.output}")
    leaks = peak_t >= TVLA_THRESHOLD
    print(f"peak |t| = {peak_t:.2f} "
          f"({'exceeds' if leaks else 'below'} the TVLA threshold "
          f"{TVLA_THRESHOLD})")
    return 0 if leaks else 1


#: The ``repro tvla --grid`` scenario matrix: (cipher, rd, shuffle,
#: jitter, masking order).  The hiding rows (shuffle, jitter) smear but
#: keep first-order leakage — they fail at a few hundred traces per
#: population — while the two masked rows pass.  Random delay is left
#: out of the hiding rows: its cumulative drift already de-aligns the
#: sample grid so far that naive sample-aligned TVLA loses power (which
#: is precisely why the attack pipeline re-locates COs first).
_TVLA_GRID = (
    ("aes", 0, False, 0, 1),
    ("aes", 0, True, 0, 1),
    ("aes", 0, False, 10, 1),
    ("aes_masked", 0, False, 0, 1),
    ("aes_masked", 0, False, 0, 2),
)


def _run_tvla_grid(args: argparse.Namespace) -> int:
    """``repro tvla --grid``: the built-in countermeasure verdict table."""
    from repro.evaluation import ParallelTvlaCampaign, TvlaCampaign
    from repro.soc.platform import PlatformSpec

    if args.store is not None or args.output is not None:
        print("--store/--output are per-configuration; run grid entries "
              "individually to persist them", file=sys.stderr)
        return 2
    suffix = "" if args.workers is None else f", {args.workers} workers"
    print(f"tvla grid: {len(_TVLA_GRID)} configurations, "
          f"{args.traces} traces per population{suffix}")
    for cipher, rd, shuffle, jitter, order in _TVLA_GRID:
        spec = PlatformSpec(
            cipher_name=cipher, max_delay=rd, noise_std=args.noise_std,
            # Jitter resamples whole traces, which only the exact capture
            # path supports.
            capture_mode="exact" if jitter else args.capture_mode,
            shuffle=shuffle, jitter=jitter, masking_order=order,
        )
        if args.workers is not None:
            campaign = ParallelTvlaCampaign(
                spec, seed=args.seed, workers=args.workers,
                shard_size=args.shard_size, batch_size=args.batch_size,
            )
        else:
            campaign = TvlaCampaign(
                spec, seed=args.seed, batch_size=args.batch_size,
            )
        result = campaign.run(args.traces)
        print(f"  {cipher:>10}  {result.summary()}")
    return 0


def cmd_tvla(args: argparse.Namespace) -> int:
    """``repro tvla``: fixed-vs-random Welch-t leakage detection."""
    from repro.evaluation import ParallelTvlaCampaign, TvlaCampaign
    from repro.soc.platform import PlatformSpec

    if args.status:
        return _campaign_status(args.store)
    if args.traces < 2:
        print("--traces must be >= 2 (per population)", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.shard_size < 1:
        print("--shard-size must be >= 1", file=sys.stderr)
        return 2
    fault_tolerance = _resolve_fault_tolerance(args)
    if fault_tolerance is None:
        return 2
    if args.grid:
        return _run_tvla_grid(args)
    countermeasures = _resolve_countermeasures(args)
    if countermeasures is None:
        return 2
    shuffle, jitter = countermeasures
    spec = PlatformSpec(
        cipher_name=args.cipher, max_delay=args.rd, noise_std=args.noise_std,
        capture_mode=args.capture_mode, shuffle=shuffle, jitter=jitter,
        masking_order=args.masking_order,
    )
    if args.workers is not None:
        from repro.runtime.retry import ShardFailure

        max_retries, retry_backoff, shard_timeout = fault_tolerance
        try:
            campaign = ParallelTvlaCampaign(
                spec, seed=args.seed, workers=args.workers,
                shard_size=args.shard_size,
                segment_length=args.segment_length,
                store_root=args.store, batch_size=args.batch_size,
                max_retries=max_retries, retry_backoff=retry_backoff,
                shard_timeout=shard_timeout,
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(f"tvla x{args.workers}: {campaign.countermeasure_name} on "
              f"{args.cipher}, {campaign.segment_length}-sample segments, "
              f"{args.traces} traces per population in shards of "
              f"{args.shard_size}")
        try:
            result = campaign.run(args.traces, verbose=True)
        except ShardFailure as failure:
            tail = (f" (captured traces persist under {args.store})"
                    if args.store is not None else "")
            print(f"tvla campaign failed: {failure} — no shard completed; "
                  f"re-run the same command to try again{tail}",
                  file=sys.stderr)
            return 4
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if campaign.resumed_from:
            print(f"resumed {campaign.resumed_from} traces from the "
                  f"shard stores")
        print(result.summary())
        if args.output is not None:
            campaign.accumulator.save(args.output)
            print(f"t statistics saved to {args.output}")
        if result.partial:
            print(f"PARTIAL RESULT: shards {list(result.failed_shards)} "
                  f"exhausted their retries; the verdict covers the merged "
                  f"shard prefix only. Re-run the same command to retry "
                  f"just the failed shards.", file=sys.stderr)
            return 3
        return 0 if result.leakage_detected else 1
    if args.store is not None:
        from repro.runtime.parallel import is_shard_store_root

        if is_shard_store_root(args.store):
            print(f"{args.store} holds per-shard stores from a parallel "
                  f"TVLA campaign; resume it with --workers",
                  file=sys.stderr)
            return 2
    try:
        campaign = TvlaCampaign(
            spec, seed=args.seed, segment_length=args.segment_length,
            store_dir=args.store, batch_size=args.batch_size,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if campaign.resumed_from:
        print(f"resumed {campaign.resumed_from} traces from the store")
    print(f"tvla: {campaign.countermeasure_name} on {args.cipher}, "
          f"{campaign.segment_length}-sample segments, "
          f"{args.traces} traces per population")
    result = campaign.run(args.traces, verbose=True)
    print(result.summary())
    if args.output is not None:
        campaign.accumulator.save(args.output)
        print(f"t statistics saved to {args.output}")
    return 0 if result.leakage_detected else 1


def _report_campaign(result) -> int:
    """Shared campaign outcome report.

    Exit codes: 0 once rank 1 was reached, 1 for an exhausted budget, 3
    for a partial run (some shards exhausted their retries).
    """
    from repro.evaluation import format_campaign

    print()
    print(format_campaign(result))
    print()
    print(f"true key      : {result.true_key.hex()}")
    print(f"recovered key : {result.recovered_key.hex()}")
    print(result.summary())
    if result.partial:
        print(f"PARTIAL RESULT: shards {list(result.failed_shards)} "
              f"exhausted their retries; ranks cover the merged shard "
              f"prefix only. Re-run the same command to retry just the "
              f"failed shards.", file=sys.stderr)
        return 3
    return 0 if result.traces_to_rank1 is not None else 1


def _run_parallel_campaign(
    args: argparse.Namespace, source, spec, platform_spec, fault_tolerance
) -> int:
    """``repro campaign --workers N``: the sharded process-parallel path."""
    from repro.runtime.parallel import ParallelCampaign, PlatformCampaignSpec
    from repro.runtime.retry import ShardFailure

    max_retries, retry_backoff, shard_timeout = fault_tolerance
    campaign_spec = PlatformCampaignSpec(
        platform=platform_spec,
        key=source.true_key,
        segment_length=source.n_samples,
        batch_size=args.batch_size,
    )
    campaign = ParallelCampaign(
        campaign_spec,
        seed=args.seed,
        workers=args.workers,
        shard_size=args.shard_size,
        store_root=args.store,
        first_checkpoint=args.first_checkpoint,
        checkpoint_growth=args.growth,
        rank1_patience=args.patience,
        batch_size=args.batch_size,
        distinguisher=spec,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        shard_timeout=shard_timeout,
    )
    print(f"parallel campaign: {args.cipher} RD-{args.rd}, "
          f"{spec.name} distinguisher, "
          f"{args.workers} workers x {args.shard_size}-trace shards, "
          f"{source.n_samples}-sample segments, aggregate {spec.aggregate}, "
          f"<= {args.traces} traces")
    if args.store is not None:
        print(f"store root: {args.store} (one trace store per shard)")
    try:
        result = campaign.run(args.traces, verbose=True)
    except ShardFailure as failure:
        tail = (f" (captured traces persist under {args.store})"
                if args.store is not None else "")
        print(f"campaign failed: {failure} — no shard completed; re-run "
              f"the same command to try again{tail}", file=sys.stderr)
        return 4
    return _report_campaign(result)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="profile a clone and train a locator")
    _add_common(p_train)
    p_train.add_argument("--output", default="locator.npz")
    p_train.set_defaults(func=cmd_train)

    p_locate = sub.add_parser("locate", help="locate COs in an attack session")
    _add_common(p_locate)
    p_locate.add_argument("--model", default="locator.npz")
    p_locate.add_argument("--cos", type=int, default=24)
    p_locate.add_argument("--consecutive", action="store_true")
    p_locate.set_defaults(func=cmd_locate)

    p_attack = sub.add_parser("attack", help="locate + align + CPA key recovery")
    _add_common(p_attack)
    p_attack.add_argument("--model", default="locator.npz")
    p_attack.add_argument("--cos", type=int, default=512)
    p_attack.add_argument("--aggregate", type=int, default=64)
    p_attack.add_argument("--consecutive", action="store_true")
    p_attack.set_defaults(func=cmd_attack)

    p_bench = sub.add_parser(
        "bench", help="sweep scenarios through the batched experiment engine"
    )
    p_bench.add_argument("--ciphers", default="aes",
                         help="comma-separated cipher names")
    p_bench.add_argument("--rds", default="4",
                         help="comma-separated random-delay configs (0/2/4)")
    p_bench.add_argument("--scenarios", default="both",
                         choices=("both", "noise", "consecutive"))
    p_bench.add_argument("--cos", type=int, default=32,
                         help="COs per attack session")
    p_bench.add_argument("--noise-stds", default="1.0",
                         help="comma-separated oscilloscope noise levels")
    p_bench.add_argument("--batch-size", type=int, default=32,
                         help="traces per batched capture/scoring call")
    p_bench.add_argument("--engine", default="windowed",
                         choices=("windowed", "dense"),
                         help="sliding-window scoring engine")
    p_bench.add_argument("--cpa", action="store_true",
                         help="also mount the key-recovery attack per scenario")
    p_bench.add_argument("--aggregate", type=int, default=64)
    _add_capture_mode_option(p_bench)
    _add_countermeasure_options(p_bench)
    _add_distinguisher_options(p_bench, windows=False)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--scale", type=float, default=1 / 32,
                         help="dataset scale relative to Table I")
    p_bench.set_defaults(func=cmd_bench)

    p_campaign = sub.add_parser(
        "campaign",
        help="streaming online-distinguisher campaign with an optional "
             "on-disk store",
    )
    p_campaign.add_argument(
        "--cipher", default="aes",
        choices=("aes", "aes_masked", "camellia", "clefia", "simon"))
    p_campaign.add_argument(
        "--rd", type=int, default=0, choices=(0, 2, 4),
        help="random-delay configuration (RD-2/RD-4 need tens of thousands "
             "of traces to converge — that is what the streaming pipeline "
             "is for)")
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.add_argument("--traces", type=int, default=512,
                            help="trace budget (resumed traces included)")
    p_campaign.add_argument("--store", default=None,
                            help="trace-store directory; reuse to resume")
    p_campaign.add_argument("--segment-length", type=int, default=None,
                            help="samples per segment (default: mean CO length)")
    p_campaign.add_argument("--aggregate", type=int, default=8,
                            help="CPA time-aggregation width (use ~32-64 "
                                 "under RD-2/RD-4)")
    p_campaign.add_argument("--batch-size", type=int, default=256,
                            help="traces per capture batch")
    p_campaign.add_argument("--first-checkpoint", type=int, default=25)
    p_campaign.add_argument("--growth", type=float, default=1.5,
                            help="checkpoint ladder growth factor")
    p_campaign.add_argument("--patience", type=int, default=2,
                            help="consecutive rank-1 checkpoints before "
                                 "early stop")
    p_campaign.add_argument("--noise-std", type=float, default=1.0,
                            help="oscilloscope acquisition noise")
    p_campaign.add_argument("--workers", type=int, default=None,
                            help="run the sharded process-parallel campaign "
                                 "with this many workers")
    p_campaign.add_argument("--shard-size", type=int, default=1024,
                            help="traces per parallel shard (seed and "
                                 "checkpoint granularity)")
    _add_fault_tolerance_options(p_campaign)
    _add_capture_mode_option(p_campaign)
    _add_countermeasure_options(p_campaign)
    _add_distinguisher_options(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_profile = sub.add_parser(
        "profile",
        help="known-key profiling campaign: capture, rank POIs, fit and "
             "save a template or NN profile directory",
    )
    p_profile.add_argument(
        "--cipher", default="aes",
        choices=("aes", "aes_masked", "camellia", "clefia", "simon"))
    p_profile.add_argument("--rd", type=int, default=0, choices=(0, 2, 4))
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--traces", type=int, default=4096,
                           help="profiling trace budget (resumed included)")
    p_profile.add_argument("--output", required=True,
                           help="profile directory to create")
    p_profile.add_argument("--store", default=None,
                           help="profiling trace-store directory (default: "
                                "OUTPUT/traces); reuse to resume")
    p_profile.add_argument("--kind", default="template",
                           choices=("template", "nn"),
                           help="profile family: Gaussian templates or "
                                "per-byte MLP classifiers")
    p_profile.add_argument("--model", default=None,
                           help="leakage model labelling the classes "
                                "(default: hd for aes_masked, else hw)")
    p_profile.add_argument("--segment-length", type=int, default=None,
                           help="samples per segment (default: derived for "
                                "aes_masked, else mean CO length)")
    p_profile.add_argument("--pois", type=int, default=3,
                           help="POIs per byte by SNR rank (ignored for "
                                "aes_masked, which uses the share layout)")
    p_profile.add_argument("--min-spacing", type=int, default=1,
                           help="minimum sample distance between POIs")
    p_profile.add_argument("--covariance", default="auto",
                           choices=("auto", "pooled", "class"),
                           help="template covariance: pooled across classes "
                                "or per class (auto: per class only for "
                                "aes_masked, whose leakage is "
                                "covariance-only)")
    p_profile.add_argument("--hidden", type=int, default=32,
                           help="nn hidden width")
    p_profile.add_argument("--combine", default="auto",
                           choices=("auto", "yes", "no"),
                           help="nn centred-product feature combining "
                                "(auto: only for aes_masked)")
    p_profile.add_argument("--epochs", type=int, default=10)
    p_profile.add_argument("--nn-batch-size", type=int, default=128)
    p_profile.add_argument("--lr", type=float, default=1e-3)
    p_profile.add_argument("--batch-size", type=int, default=256,
                           help="traces per capture batch")
    p_profile.add_argument("--noise-std", type=float, default=1.0)
    _add_capture_mode_option(p_profile)
    _add_countermeasure_options(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_assess = sub.add_parser(
        "assess",
        help="SNR / Welch-t leakage assessment over a known-key trace store",
    )
    p_assess.add_argument("--store", required=True,
                          help="trace-store directory to assess")
    p_assess.add_argument("--model", default="hw",
                          help="leakage model defining the class split")
    p_assess.add_argument("--output", default=None,
                          help="save the per-byte SNR / t maps to this .npz")
    p_assess.add_argument("--batch-size", type=int, default=1024,
                          help="traces per streamed chunk")
    p_assess.add_argument("--expect-countermeasure", default=None,
                          help="refuse the store unless its recorded "
                               "countermeasure name (e.g. RD-0+SH-20x16) "
                               "matches")
    p_assess.set_defaults(func=cmd_assess)

    p_tvla = sub.add_parser(
        "tvla",
        help="fixed-vs-random TVLA leakage detection, single configuration "
             "or the built-in countermeasure grid",
    )
    p_tvla.add_argument(
        "--cipher", default="aes",
        choices=("aes", "aes_masked", "camellia", "clefia", "simon"))
    p_tvla.add_argument("--rd", type=int, default=0, choices=(0, 2, 4),
                        help="random-delay configuration")
    p_tvla.add_argument("--seed", type=int, default=0)
    p_tvla.add_argument("--traces", type=int, default=256,
                        help="traces per population (fixed and random; "
                             "resumed traces included)")
    p_tvla.add_argument("--store", default=None,
                        help="trace-store directory; reuse to resume")
    p_tvla.add_argument("--segment-length", type=int, default=None,
                        help="samples per segment (default: mean CO length)")
    p_tvla.add_argument("--batch-size", type=int, default=256,
                        help="traces per interleaved capture round")
    p_tvla.add_argument("--noise-std", type=float, default=1.0,
                        help="oscilloscope acquisition noise")
    p_tvla.add_argument("--output", default=None,
                        help="save the Welch-t accumulator to this .npz")
    p_tvla.add_argument("--grid", action="store_true",
                        help="run the built-in countermeasure grid (baseline, "
                             "shuffle, RD+jitter, masking order 1 and 2) "
                             "instead of one configuration")
    p_tvla.add_argument("--workers", type=int, default=None,
                        help="shard the capture over a process pool; at a "
                             "fixed --shard-size the merged t map and "
                             "verdict are identical for any worker count")
    p_tvla.add_argument("--shard-size", type=int, default=1024,
                        help="traces per population per shard — the unit "
                             "of parallel work and per-shard seed "
                             "derivation (only with --workers)")
    _add_fault_tolerance_options(p_tvla)
    _add_capture_mode_option(p_tvla)
    _add_countermeasure_options(p_tvla)
    p_tvla.set_defaults(func=cmd_tvla)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
