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

Sharded runs (``tvla`` always, ``campaign`` with ``--workers``) are fault
tolerant: failed shards retry with exponential backoff (``--max-retries``
/ ``--retry-backoff``), hung shards are cancelled by the ``--shard-timeout``
watchdog, and re-running the same command resumes just the missing work.
``--status`` prints the campaign journal kept under ``--store``.

Exit codes, for every command: 0/1 the verdict; 2 a usage error, or an
incompatible, corrupt or missing input; 3 a partial result (some shards
exhausted their retries); 4 a failed run (no shard completed).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.config import default_config
from repro.core.locator import CryptoLocator
from repro.errors import (
    IncompatibleArtifactError,
    ReproError,
    ShardFailure,
    UsageError,
    require_compatible,
)
from repro.evaluation import match_hits
from repro.evaluation.experiments import default_tolerance
from repro.soc import SimulatedPlatform

_CIPHERS = ("aes", "aes_masked", "camellia", "clefia", "simon")


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


def _parse_countermeasures(text: str | None) -> tuple[bool, int]:
    """Parse ``--countermeasure`` into ``(shuffle, jitter_strength)``.

    Accepts a comma-separated combination of ``none``, ``shuffle``,
    ``jitter`` (strength 10) and ``jitter-N``; anything else is a usage
    error listing the valid choices.
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
            strength = token[len("jitter-"):]
            jitter = int(strength) if strength.isdigit() else -1
            if not 1 <= jitter <= 99:
                raise UsageError(
                    f"invalid jitter strength in {token!r}; valid "
                    f"countermeasures: {_COUNTERMEASURE_CHOICES}"
                )
        else:
            raise UsageError(f"unknown countermeasure {token!r}; valid "
                             f"choices: {_COUNTERMEASURE_CHOICES}")
    return shuffle, jitter


def _distinguisher_spec(args: argparse.Namespace, platform=None):
    """Validate the distinguisher CLI options into a buildable spec.

    ``cpa2`` derives its windows from the target's ``platform`` spec.  Bad
    names and inconsistent options are usage errors — the registry lists
    the valid names, so one ``spec.build()`` probe covers every combination.
    """
    from repro.attacks.distinguishers import (
        DistinguisherSpec,
        masked_aes_windows,
    )

    window1 = getattr(args, "window1", None)
    window2 = getattr(args, "window2", None)
    aggregate = args.aggregate
    if args.distinguisher in ("template", "nnp") and aggregate != 1:
        # Profiles score the raw sample space they were built in.
        aggregate = 1
        print(f"{args.distinguisher} scores the profile's sample space; "
              f"aggregate forced to 1")
    if args.distinguisher == "cpa2" and window1 is None and window2 is None:
        if platform is None or platform.cipher_name != "aes_masked":
            raise UsageError("cpa2 needs --window1/--window2 sample windows "
                             "(they are derived automatically only for "
                             "--cipher aes_masked)")
        if platform.max_delay != 0:
            raise UsageError("cpa2 window derivation needs --rd 0: random "
                             "delay smears the two op windows apart, so the "
                             "sample pairing (and the attack) breaks under "
                             "RD-2/RD-4")
        if platform.shuffle or platform.jitter:
            raise UsageError("cpa2 window derivation needs a deterministic op "
                             "layout: shuffling permutes the two op windows "
                             "and clock jitter drifts the sample grid, so the "
                             "fixed sample pairing breaks under "
                             "--countermeasure shuffle/jitter")
        shares = platform.masking_order + 1
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
        profile=getattr(args, "profile", None),
    )
    try:
        spec.build()
    except ValueError as error:
        raise UsageError(str(error)) from error
    return spec


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="shard the capture over a process pool (tvla always shards, "
             "on one inline worker by default); at a fixed --shard-size "
             "the merged result is identical for any worker count")
    parser.add_argument(
        "--shard-size", type=int, default=1024,
        help="traces (per population, for tvla) per shard — the unit of "
             "parallel work, seed derivation and checkpoint alignment")
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="failed-shard retry budget before the campaign degrades to a "
             "partial result (default 2; campaign: only with --workers)")
    parser.add_argument(
        "--retry-backoff", type=float, default=None,
        help="base seconds of exponential per-shard retry backoff "
             "(default 0.5; campaign: only with --workers)")
    parser.add_argument(
        "--shard-timeout", type=float, default=None,
        help="per-shard wall-clock watchdog in seconds; hung shards are "
             "cancelled and requeued (campaign: only with --workers)")
    parser.add_argument(
        "--status", action="store_true",
        help="report the campaign journal under --store and exit")


def _add_countermeasure_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--countermeasure", default="none",
        help=f"software/clock countermeasures on top of the random delay, "
             f"comma-separated: {_COUNTERMEASURE_CHOICES}")
    parser.add_argument(
        "--masking-order", type=int, default=1, choices=(1, 2),
        help="boolean masking order for --cipher aes_masked "
             "(2 = three-share second-order datapath)")


def _add_target_options(
    parser: argparse.ArgumentParser, traces: int, traces_help: str
) -> None:
    """The capture-target options ``campaign``, ``profile`` and ``tvla`` share."""
    parser.add_argument("--cipher", default="aes", choices=_CIPHERS)
    parser.add_argument("--rd", type=int, default=0, choices=(0, 2, 4),
                        help="random-delay configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traces", type=int, default=traces, help=traces_help)
    parser.add_argument("--store", default=None,
                        help="trace-store directory; reuse to resume")
    parser.add_argument("--segment-length", type=int, default=None,
                        help="samples per segment (default: mean CO length)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="traces per capture batch")
    parser.add_argument("--noise-std", type=float, default=1.0,
                        help="oscilloscope acquisition noise")
    parser.add_argument(
        "--capture-mode", default="exact", choices=("exact", "fast"),
        help="attack-segment capture: 'exact' is bit-identical to the "
             "scalar reference, 'fast' synthesises only the segment window "
             "from bulk draws (statistically identical stream, much faster "
             "capture); full traces are the same in both modes")
    _add_countermeasure_options(parser)


def _resolve_countermeasures(
    args: argparse.Namespace, ciphers=None
) -> tuple[bool, int]:
    """Validate the countermeasure options against the other target options.

    Returns ``(shuffle, jitter)``; an unknown name, a masking order on an
    unmasked cipher, or shuffling on a cipher without shuffle groups is a
    usage error.
    """
    ciphers = list(ciphers) if ciphers is not None else [args.cipher]
    shuffle, jitter = _parse_countermeasures(args.countermeasure)
    unmasked = [c for c in ciphers if c != "aes_masked"]
    if args.masking_order != 1 and unmasked:
        raise UsageError(f"--masking-order {args.masking_order} needs cipher "
                         f"aes_masked; {', '.join(unmasked)} has no masked "
                         f"datapath")
    unshuffleable = [c for c in ciphers if c != "aes"]
    if shuffle and unshuffleable:
        raise UsageError(f"--countermeasure shuffle is only wired for cipher "
                         f"aes ({', '.join(unshuffleable)} declares no "
                         f"shuffle groups)")
    return shuffle, jitter


def _platform_spec(args: argparse.Namespace):
    """The :class:`~repro.soc.platform.PlatformSpec` the target options name."""
    from repro.soc.platform import PlatformSpec

    if args.batch_size < 1:
        raise UsageError("--batch-size must be >= 1")
    shuffle, jitter = _resolve_countermeasures(args)
    if jitter and args.capture_mode == "fast":
        raise UsageError("--countermeasure jitter resamples whole traces and "
                         "is not supported with --capture-mode fast")
    return PlatformSpec(
        cipher_name=args.cipher, max_delay=args.rd, noise_std=args.noise_std,
        capture_mode=args.capture_mode, shuffle=shuffle, jitter=jitter,
        masking_order=args.masking_order,
    )


def _open_store(args: argparse.Namespace, path, source, platform_spec):
    """Open or create the serial trace store a capture command resumes."""
    from repro.campaign import TraceStore

    return TraceStore.open_or_create(
        path,
        n_samples=source.n_samples,
        block_size=source.block_size,
        key=source.true_key,
        meta={**platform_spec.store_meta(), "seed": args.seed},
    )


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
    parser.add_argument("--cipher", default="aes", choices=_CIPHERS)
    parser.add_argument("--rd", type=int, default=4, choices=(0, 2, 4),
                        help="random-delay configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1 / 32,
                        help="dataset scale relative to Table I")


def _add_session_options(parser: argparse.ArgumentParser, cos: int) -> None:
    """Options of the commands that run a saved locator on a fresh session."""
    _add_common(parser)
    parser.add_argument("--model", default="locator.npz")
    parser.add_argument("--cos", type=int, default=cos)
    parser.add_argument("--consecutive", action="store_true")


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


def _attack_session(args: argparse.Namespace):
    """The saved locator, refused unless fitted for this target, and a session."""
    config = default_config(args.cipher, dataset_scale=args.scale)
    locator = CryptoLocator(config, seed=args.seed + 1).load(
        args.model, max_delay=args.rd
    )
    target = SimulatedPlatform(args.cipher, max_delay=args.rd, seed=args.seed + 100)
    session = target.capture_session_trace(
        args.cos, noise_interleaved=not args.consecutive
    )
    return locator, session


def cmd_locate(args: argparse.Namespace) -> int:
    """``repro locate``: find COs in a fresh attack session."""
    locator, session = _attack_session(args)
    starts = locator.locate(session.trace)
    stats = match_hits(starts, session.true_starts, default_tolerance(locator.config))
    print(f"located {starts.size} COs in a {session.trace.size}-sample trace")
    print(f"vs ground truth: {stats}")
    return 0 if stats.hit_rate > 0 else 1


def cmd_attack(args: argparse.Namespace) -> int:
    """``repro attack``: locate, align, and run the CPA key recovery."""
    from repro.attacks.distinguishers import CpaDistinguisher
    from repro.evaluation.experiments import aligned_attack_set

    locator, session = _attack_session(args)
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
        raise UsageError(f"unknown cipher(s): {', '.join(unknown)}; "
                         f"available: {', '.join(available_ciphers())}")
    if args.batch_size < 1:
        raise UsageError("--batch-size must be >= 1")
    if args.distinguisher in ("cpa2", "template", "nnp"):
        raise UsageError(f"{args.distinguisher} needs sample windows or a "
                         f"profile the sweep cannot supply; run it through "
                         f"`repro campaign --distinguisher "
                         f"{args.distinguisher}`")
    shuffle, jitter = _resolve_countermeasures(args, ciphers=ciphers)
    distinguisher = _distinguisher_spec(args)
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
        raise UsageError("--status needs --store (the campaign's store root)")
    root = Path(store)
    if not root.exists():
        raise FileNotFoundError(
            f"no campaign at {store}: directory does not exist")
    if (root / "manifest.json").exists():
        raise UsageError(f"{store} holds a serial trace store (no journal); "
                         f"journals are written by sharded runs (tvla, and "
                         f"campaign --workers)")
    print(CampaignJournal.load(root).describe())
    return 0


def _retry_options(args: argparse.Namespace) -> dict:
    """The retry flags given, as sharded-campaign keyword arguments.

    Their values are validated by the campaign's
    :class:`~repro.runtime.retry.RetryPolicy`.
    """
    if args.workers is not None and args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.shard_size < 1:
        raise UsageError("--shard-size must be >= 1")
    retry = {"max_retries": args.max_retries,
             "retry_backoff": args.retry_backoff,
             "shard_timeout": args.shard_timeout}
    return {name: value for name, value in retry.items() if value is not None}


def _outcome(result, success: bool, scope: str) -> int:
    """Exit 3 for a partial sharded result, else 0 on ``success``, else 1."""
    if result.partial:
        print(f"PARTIAL RESULT: shards {list(result.failed_shards)} "
              f"exhausted their retries; {scope} the merged shard prefix "
              f"only. Re-run the same command to retry just the failed "
              f"shards.", file=sys.stderr)
        return 3
    return 0 if success else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: streaming capture→store→accumulate→rank attack."""
    from repro.evaluation import format_campaign
    from repro.runtime.campaign import AttackCampaign, PlatformSegmentSource
    from repro.runtime.parallel import ParallelCampaign, PlatformCampaignSpec

    retry = _retry_options(args)
    if retry and args.workers is None:
        raise UsageError("--max-retries/--retry-backoff/--shard-timeout apply "
                         "to the sharded parallel path; pass --workers")
    platform_spec = _platform_spec(args)
    spec = _distinguisher_spec(args, platform_spec)
    segment_length = args.segment_length
    if spec.profile is not None:
        from repro.profiled import load_manifest

        # A profile built on one cipher/RD/segment scores garbage on another.
        manifest = load_manifest(spec.profile, cipher=args.cipher, rd=args.rd,
                                 segment_length=args.segment_length)
        segment_length = int(manifest["segment_length"])
        if args.segment_length is None:
            print(f"segment length {segment_length} (from the profile)")
    platform = platform_spec.build(args.seed)
    source = PlatformSegmentSource(
        platform, segment_length=segment_length, batch_size=args.batch_size
    )
    settings = dict(first_checkpoint=args.first_checkpoint,
                    checkpoint_growth=args.growth,
                    rank1_patience=args.patience,
                    batch_size=args.batch_size, distinguisher=spec)
    store = None
    if args.workers is not None:
        campaign = ParallelCampaign(
            PlatformCampaignSpec(
                platform=platform_spec, key=source.true_key,
                segment_length=source.n_samples, batch_size=args.batch_size,
            ),
            seed=args.seed, workers=args.workers, shard_size=args.shard_size,
            store_root=args.store, **settings, **retry,
        )
        name = "parallel campaign"
        shards = f"{args.workers} workers x {args.shard_size}-trace shards, "
        if args.store is not None:
            print(f"store root: {args.store} (one trace store per shard)")
    else:
        if args.store is not None:
            store = _open_store(args, args.store, source, platform_spec)
            print(f"store: {store.path} ({len(store)} traces on disk)")
        campaign = AttackCampaign(source, store=store, **settings)
        if campaign.resumed_from:
            print(f"resumed {campaign.resumed_from} traces from the store")
        name, shards = "campaign", ""
    print(f"{name}: {args.cipher} RD-{args.rd}, {spec.name} distinguisher, "
          f"{shards}{source.n_samples}-sample segments, aggregate "
          f"{spec.aggregate}, <= {args.traces} traces")
    result = campaign.run(args.traces, verbose=True)
    print()
    print(format_campaign(result))
    print()
    print(f"true key      : {result.true_key.hex()}")
    print(f"recovered key : {result.recovered_key.hex()}")
    print(result.summary())
    if store is not None:
        print(f"store now holds {len(store)} traces "
              f"({store.nbytes() / 1e6:.1f} MB on disk)")
    return _outcome(result, result.traces_to_rank1 is not None, "ranks cover")


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: known-key profiling campaign → saved profile."""
    from pathlib import Path

    from repro.profiled import (
        ProfilingCampaign,
        fit_nn_profile,
        fit_template_profile,
        masked_byte_pois,
    )
    from repro.runtime.campaign import PlatformSegmentSource

    platform_spec = _platform_spec(args)
    if platform_spec.shuffle or platform_spec.jitter:
        raise UsageError("profiling assumes a fixed per-sample operation "
                         "layout; shuffling permutes it and clock jitter "
                         "drifts it, so --countermeasure shuffle/jitter "
                         "cannot be profiled")
    masked = args.cipher == "aes_masked"
    if masked and args.rd != 0:
        raise UsageError("profiling the masked target needs --rd 0: random "
                         "delay smears the share operations apart, so the "
                         "fixed POI layout (and the profile) breaks under "
                         "RD-2/RD-4")
    shares = args.masking_order + 1
    model = args.model or ("hd" if masked else "hw")
    segment_length = args.segment_length
    if segment_length is None and masked:
        from repro.attacks.distinguishers import masked_aes_windows

        segment_length = masked_aes_windows(shares=shares)[1][1] + 16
    platform = platform_spec.build(args.seed)
    source = PlatformSegmentSource(
        platform, segment_length=segment_length, batch_size=args.batch_size
    )
    output = Path(args.output)
    store = _open_store(
        args, args.store if args.store is not None else output / "traces",
        source, platform_spec,
    )
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
        raise UsageError(f"{args.store} records no capture key; leakage "
                         f"assessment needs known-key (profiling) traces")
    if not len(store):
        raise UsageError(f"{args.store} is empty")
    stored_cm = store.meta.get("countermeasure")
    # A store that records no countermeasure cannot confirm the expected one.
    require_compatible(f"trace store {args.store}",
                       {"countermeasure": str(stored_cm)},
                       countermeasure=args.expect_countermeasure)
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


def _tvla_campaign(args: argparse.Namespace, spec, retry: dict, store=None):
    """The sharded TVLA campaign on ``spec`` (one inline worker by default)."""
    from repro.evaluation import TvlaCampaign

    return TvlaCampaign(
        spec, seed=args.seed, workers=args.workers or 1,
        shard_size=args.shard_size, segment_length=args.segment_length,
        store_root=store, batch_size=args.batch_size, **retry,
    )


def _run_tvla_grid(args: argparse.Namespace, retry: dict) -> int:
    """``repro tvla --grid``: the built-in countermeasure verdict table."""
    from repro.soc.platform import PlatformSpec

    if args.store is not None or args.output is not None:
        raise UsageError("--store/--output are per-configuration; run grid "
                         "entries individually to persist them")
    print(f"tvla grid: {len(_TVLA_GRID)} configurations, "
          f"{args.traces} traces per population, {args.workers or 1} workers")
    for cipher, rd, shuffle, jitter, order in _TVLA_GRID:
        spec = PlatformSpec(
            cipher_name=cipher, max_delay=rd, noise_std=args.noise_std,
            # Jitter resamples whole traces, which only the exact capture
            # path supports.
            capture_mode="exact" if jitter else args.capture_mode,
            shuffle=shuffle, jitter=jitter, masking_order=order,
        )
        result = _tvla_campaign(args, spec, retry).run(args.traces)
        print(f"  {cipher:>10}  {result.summary()}")
    return 0


def cmd_tvla(args: argparse.Namespace) -> int:
    """``repro tvla``: fixed-vs-random Welch-t leakage detection."""
    if args.traces < 2:
        raise UsageError("--traces must be >= 2 (per population)")
    retry = _retry_options(args)
    if args.grid:
        return _run_tvla_grid(args, retry)
    campaign = _tvla_campaign(args, _platform_spec(args), retry, args.store)
    print(f"tvla x{campaign.workers}: {campaign.countermeasure_name} on "
          f"{args.cipher}, {campaign.segment_length}-sample segments, "
          f"{args.traces} traces per population in shards of "
          f"{args.shard_size}")
    result = campaign.run(args.traces, verbose=True)
    if campaign.resumed_from:
        print(f"resumed {campaign.resumed_from} traces from the store")
    print(result.summary())
    if args.output is not None:
        campaign.accumulator.save(args.output)
        print(f"t statistics saved to {args.output}")
    return _outcome(result, result.leakage_detected, "the verdict covers")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="profile a clone and train a locator")
    _add_common(p_train)
    p_train.add_argument("--output", default="locator.npz")
    p_train.set_defaults(func=cmd_train)

    p_locate = sub.add_parser("locate", help="locate COs in an attack session")
    _add_session_options(p_locate, cos=24)
    p_locate.set_defaults(func=cmd_locate)

    p_attack = sub.add_parser("attack", help="locate + align + CPA key recovery")
    _add_session_options(p_attack, cos=512)
    p_attack.add_argument("--aggregate", type=int, default=64)
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
    _add_target_options(p_campaign, 512,
                        "trace budget (resumed traces included)")
    p_campaign.add_argument("--aggregate", type=int, default=8,
                            help="CPA time-aggregation width (use ~32-64 "
                                 "under RD-2/RD-4)")
    p_campaign.add_argument("--first-checkpoint", type=int, default=25)
    p_campaign.add_argument("--growth", type=float, default=1.5,
                            help="checkpoint ladder growth factor")
    p_campaign.add_argument("--patience", type=int, default=2,
                            help="consecutive rank-1 checkpoints before "
                                 "early stop")
    _add_parallel_options(p_campaign)
    _add_distinguisher_options(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_profile = sub.add_parser(
        "profile",
        help="known-key profiling campaign: capture, rank POIs, fit and "
             "save a template or NN profile directory",
    )
    _add_target_options(p_profile, 4096,
                        "profiling trace budget (resumed included)")
    p_profile.add_argument("--output", required=True,
                           help="profile directory to create; its traces/ "
                                "subdirectory is the default --store")
    p_profile.add_argument("--kind", default="template",
                           choices=("template", "nn"),
                           help="profile family: Gaussian templates or "
                                "per-byte MLP classifiers")
    p_profile.add_argument("--model", default=None,
                           help="leakage model labelling the classes "
                                "(default: hd for aes_masked, else hw)")
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
    _add_target_options(p_tvla, 256,
                        "traces per population (fixed and random; resumed "
                        "traces included)")
    p_tvla.add_argument("--output", default=None,
                        help="save the Welch-t accumulator to this .npz")
    p_tvla.add_argument("--grid", action="store_true",
                        help="run the built-in countermeasure grid (baseline, "
                             "shuffle, RD+jitter, masking order 1 and 2) "
                             "instead of one configuration")
    _add_parallel_options(p_tvla)
    p_tvla.set_defaults(func=cmd_tvla)
    return parser


#: CLI flags that set an artifact field, named when a refusal cites it.
_FLAGS = {
    "cipher": "--cipher", "rd": "--rd", "max_delay": "--rd",
    "seed": "--seed", "campaign_seed": "--seed",
    "capture_mode": "--capture-mode",
    "segment_length": "--segment-length", "n_samples": "--segment-length",
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Refusals map to exit codes here and nowhere else: a sharded run with
    no completed shard exits 4; any other typed error (a usage error, an
    incompatible or corrupt artifact) or a missing input exits 2.  Both
    print one line on stderr.
    """
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "status", False):
            return _campaign_status(args.store)
        return args.func(args)
    except ShardFailure as failure:
        store = getattr(args, "store", None)
        tail = (f" (captured traces persist under {store})"
                if store is not None else "")
        print(f"{args.command} failed: {failure} — no shard completed; "
              f"re-run the same command to try again{tail}", file=sys.stderr)
        return 4
    except (ReproError, FileNotFoundError) as error:
        flag = (_FLAGS.get(error.field)
                if isinstance(error, IncompatibleArtifactError)
                and isinstance(error.stored, (int, str)) else None)
        hint = f" (it was made with {flag} {error.stored})" if flag else ""
        print(f"{error}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
