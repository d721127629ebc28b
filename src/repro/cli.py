"""Command-line interface for the Edge-LLM reproduction.

Subcommands cover the deployment workflow end to end on synthetic data:

* ``pretrain``  train a base model and save an .npz checkpoint
* ``evaluate``  perplexity / QA accuracy of a checkpoint on a language seed
* ``compress``  profile + search a LUC policy for a checkpoint
* ``slice``     structurally rotate-and-slice a checkpoint (smaller matmuls)
* ``adapt``     run the full Edge-LLM pipeline (compress -> adapt -> vote)
* ``speedup``   modeled per-iteration cost vs vanilla tuning
* ``generate``  serve one generation request through repro.serve
* ``serve-sim`` drive the batched serving runtime with synthetic traffic
* ``cache``     inspect / prune an on-disk evaluation cache directory
* ``report``    pretty-print a telemetry run report saved by --telemetry-out

Every workload subcommand accepts ``--telemetry-out PATH``: the run
executes under a fresh metrics registry (see ``repro.obs``) and a
structured JSON run report is written when it finishes.

The search-heavy subcommands (``compress``, ``adapt``, ``speedup``) also
accept ``--workers N`` (fan the offline searches out over a process
pool; results are identical at any worker count) and ``--cache-dir DIR``
(persist memoized evaluations so repeated runs skip finished work) —
see ``docs/search.md``.

``adapt`` accepts ``--shards S`` (plus ``--micro-batches`` /
``--stage-plan``): the model is partitioned into contiguous stages
hosted by persistent worker processes and tuned through the pipeline
runtime (``repro.dist``).  Results are bit-identical to ``--shards 1``
— see ``docs/parallelism.md``.  ``generate`` and ``serve-sim`` serve
from one process.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--layers", type=int, default=8)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--max-len", type=int, default=128)


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--language-seed", type=int, default=0,
                        help="seed of the hidden Markov language")
    parser.add_argument("--order", type=int, default=1)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seq", type=int, default=32)


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="write a structured telemetry run report (JSON) on exit",
    )


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-graph-capture", action="store_true",
        help="disable VJP graph capture/replay (always re-trace; "
             "results are identical either way)",
    )


def _apply_runtime_args(args) -> None:
    from .tensor import set_graph_capture

    if getattr(args, "no_graph_capture", False):
        set_graph_capture(False)


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the offline searches (0 = all cores; "
             "results are identical at any worker count)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist memoized search evaluations here so repeated runs "
             "skip finished work",
    )


def _add_dist_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=1, metavar="S",
        help="pipeline-parallel stages over persistent worker processes "
             "(1 = in-process; results are bit-identical at any count)",
    )
    parser.add_argument(
        "--micro-batches", type=int, default=1, metavar="M",
        help="micro-batches per step for the 1F1B pipeline schedule",
    )
    parser.add_argument(
        "--stage-plan", default=None, metavar="B1,B2,...",
        help="manual stage boundaries (interior block indices, comma-"
             "separated; default: cost-balanced partition)",
    )


def _eval_cache(args):
    from .parallel import EvalCache

    return EvalCache(args.cache_dir)


def _corpus(args, seed: Optional[int] = None):
    from .data import MarkovChainCorpus

    return MarkovChainCorpus(
        vocab_size=args.vocab, order=args.order,
        seed=args.language_seed if seed is None else seed,
    )


def cmd_pretrain(args) -> int:
    from .data import lm_batches
    from .nn import AdamW, TransformerConfig, TransformerLM, save_model
    from .tensor import cross_entropy

    config = TransformerConfig(
        vocab_size=args.vocab, dim=args.dim, num_layers=args.layers,
        num_heads=args.heads, max_len=args.max_len, seed=args.seed,
    )
    model = TransformerLM(config)
    corpus = _corpus(args)
    rng = np.random.default_rng(args.seed)
    opt = AdamW(model.parameters(), lr=args.lr)
    print(f"pretraining {model.num_parameters():,} params for {args.steps} steps")
    for step, (inputs, targets) in enumerate(
        lm_batches(corpus, args.batch, args.seq, args.steps, rng)
    ):
        loss = cross_entropy(model(inputs), targets)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if step % max(args.steps // 10, 1) == 0:
            print(f"  step {step:5d}  loss {loss.item():.4f}")
    save_model(model, args.out)
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .data import MultipleChoiceTask
    from .eval import model_choice_accuracy, model_perplexity
    from .nn import load_model

    model = load_model(args.model)
    corpus = _corpus(args)
    ppl = model_perplexity(model, corpus, batch_size=args.batch,
                           seq_len=args.seq)
    qa = MultipleChoiceTask(corpus, num_choices=4, prompt_len=12,
                            answer_len=5, seed=args.seed)
    acc = model_choice_accuracy(model, qa.dataset(args.qa_items))
    print(json.dumps({
        "perplexity": round(ppl, 4),
        "qa_accuracy": round(acc, 4),
        "language_seed": args.language_seed,
    }, indent=2))
    return 0


def cmd_compress(args) -> int:
    from .data import lm_batches
    from .luc import enumerate_layer_options, measure_sensitivity, search_policy
    from .nn import load_model

    model = load_model(args.model)
    corpus = _corpus(args)
    rng = np.random.default_rng(args.seed)
    calib_inputs, calib_targets = next(
        lm_batches(corpus, 4, args.seq, 1, rng)
    )
    options = enumerate_layer_options(tuple(args.bits), tuple(args.ratios))
    cache = _eval_cache(args)
    profile = measure_sensitivity(
        model, calib_inputs, calib_targets, options, metric=args.metric,
        workers=args.workers, cache=cache,
    )
    policy = search_policy(
        profile, model.num_layers, args.budget,
        strategy=args.strategy, options=options,
        workers=args.workers, cache=cache,
    )
    print(policy.describe())
    if args.out:
        payload = [
            {"bits": layer.bits, "prune_ratio": layer.prune_ratio}
            for layer in policy.layers
        ]
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"policy written to {args.out}")
    return 0


def cmd_slice(args) -> int:
    """Rotate-and-slice a checkpoint to genuinely smaller matmuls.

    Reports perplexity before/after and the modeled decode FLOP
    reduction; the sliced checkpoint (SliceSpec embedded) reloads
    directly via ``load_model``.
    """
    from .data import MarkovChainCorpus, lm_batches
    from .eval import model_perplexity
    from .hw import decode_step_workload, total_macs
    from .nn import load_model, rotate_and_slice, save_model

    model = load_model(args.model)
    corpus = MarkovChainCorpus(
        vocab_size=model.config.vocab_size, order=args.order,
        seed=args.language_seed,
    )
    rng = np.random.default_rng(args.seed)
    calib, _ = next(lm_batches(corpus, args.batch, args.seq, 1, rng))
    before = model_perplexity(model, corpus, batch_size=args.batch,
                              seq_len=args.seq)
    ratios = args.ratios if args.ratios else args.ratio
    spec = rotate_and_slice(model, calib, ratios, round_to=args.round_to)
    after = model_perplexity(model, corpus, batch_size=args.batch,
                             seq_len=args.seq)
    base = total_macs(decode_step_workload(model.config, 1, args.seq))
    sliced = total_macs(decode_step_workload(
        model.config, 1, args.seq, slice_per_block=spec.hw_dims()
    ))
    save_model(model, args.out)
    print(json.dumps({
        "perplexity_before": round(before, 4),
        "perplexity_after": round(after, 4),
        "flop_reduction": round(base / sliced, 3),
        "residual_dims": {str(i): list(d) for i, d in spec.hw_dims().items()},
        "out": args.out,
    }, indent=2))
    return 0


def cmd_adapt(args) -> int:
    from .adaptive import AdaptiveTuningConfig
    from .data import lm_batches
    from .eval import perplexity
    from .nn import load_model
    from .pipeline import EdgeLLM, EdgeLLMConfig

    model = load_model(args.model)
    pre = _corpus(args, seed=args.language_seed)
    target = _corpus(args, seed=args.target_seed)
    rng = np.random.default_rng(args.seed)

    edge = EdgeLLM(model, EdgeLLMConfig(
        compute_budget=args.budget,
        tuning=AdaptiveTuningConfig(
            window=args.window,
            exit_points=args.exits or None,
            lr=args.lr,
        ),
        workers=args.workers,
        cache_dir=args.cache_dir,
        shards=args.shards,
        micro_batches=args.micro_batches,
        stage_plan=args.stage_plan,
    ))
    try:
        edge.compress(*next(lm_batches(pre, 4, args.seq, 1, rng)))
        edge.adapt(lm_batches(target, args.batch, args.seq, args.steps, rng))
        edge.calibrate_voting(*next(lm_batches(target, 4, args.seq, 1, rng)))
        result = {
            "adapted_perplexity": round(
                perplexity(edge.logits, target, batch_size=args.batch,
                           seq_len=args.seq), 4
            ),
            "policy_cost": round(edge.policy.cost(), 4),
            "speedup_vs_vanilla": round(
                edge.speedup_vs_vanilla(args.batch, args.seq), 3
            ),
            "memory_bytes": edge.memory_report(args.batch, args.seq).as_dict(),
        }
        if args.shards > 1:
            result["stage_memory_bytes"] = edge.trainer.stage_memory_report()
    finally:
        edge.close()
    print(json.dumps(result, indent=2))
    return 0


def cmd_speedup(args) -> int:
    from .hw import EDGE_GPU_LIKE, schedule_workloads, tuning_iteration_workload
    from .nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=args.vocab, dim=args.dim, num_layers=args.layers,
        num_heads=args.heads, max_len=args.max_len,
    )
    cache = _eval_cache(args)
    vanilla = schedule_workloads(
        tuning_iteration_workload(config, args.batch, args.seq,
                                  args.layers, 0),
        EDGE_GPU_LIKE, strategy="exhaustive",
        workers=args.workers, cache=cache,
    )
    bits = {i: args.avg_bits for i in range(args.layers)}
    sparsity = {i: args.avg_sparsity for i in range(args.layers)}
    exit_point = max(args.layers - 2, 1)
    edge = schedule_workloads(
        tuning_iteration_workload(
            config, args.batch, args.seq, exit_point,
            max(exit_point - args.window, 0),
            bits_per_block=bits, sparsity_per_block=sparsity,
        ),
        EDGE_GPU_LIKE, strategy="exhaustive",
        workers=args.workers, cache=cache,
    )
    print(json.dumps({
        "vanilla_mcycles": round(vanilla.cycles / 1e6, 4),
        "edge_llm_mcycles": round(edge.cycles / 1e6, 4),
        "speedup": round(vanilla.cycles / edge.cycles, 3),
        "edge_utilization": round(edge.mean_utilization, 3),
    }, indent=2))
    return 0


def _serving_voting(model, args, rng):
    """Optional voting combiner for the serving subcommands.

    ``--exits`` attaches exit heads and calibrates a combiner on one
    validation batch of the (model-vocab) corpus; ``--confidence`` is
    only meaningful together with it.
    """
    exits = getattr(args, "exits", None)
    if not exits:
        if getattr(args, "confidence", None) is not None:
            raise SystemExit("--confidence requires --exits")
        return None
    from .adaptive import ExitHeadSet, VotingCombiner
    from .data import MarkovChainCorpus, lm_batches

    corpus = MarkovChainCorpus(
        vocab_size=model.config.vocab_size, order=args.order,
        seed=args.language_seed,
    )
    heads = ExitHeadSet(model, exit_points=exits, seed=args.seed)
    voting = VotingCombiner(model, heads)
    inputs, targets = next(lm_batches(corpus, 4, args.seq, 1, rng))
    voting.calibrate(inputs, targets)
    return voting


def cmd_generate(args) -> int:
    from .data import MarkovChainCorpus, lm_batches
    from .nn import load_model
    from .serve import Request, serve_batch

    model = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    if args.prompt:
        prompt = args.prompt
    else:
        corpus = MarkovChainCorpus(
            vocab_size=model.config.vocab_size, order=args.order,
            seed=args.language_seed,
        )
        inputs, _ = next(lm_batches(corpus, 1, args.prompt_len, 1, rng))
        prompt = [int(t) for t in inputs[0]]
    voting = _serving_voting(model, args, rng)
    request = Request(
        "cli", prompt=prompt, max_new_tokens=args.max_new_tokens,
        greedy=not args.sample, temperature=args.temperature,
        top_k=args.top_k, top_p=args.top_p, seed=args.seed,
        eos_token=args.eos_token,
    )

    result = serve_batch(
        model, [request], voting=voting,
        confidence_threshold=args.confidence,
    )[0]
    print(json.dumps({
        "prompt": prompt,
        "tokens": result.tokens,
        "finish_reason": result.finish_reason,
        "early_exit_tokens": result.early_exit_tokens,
        "greedy": request.greedy,
    }, indent=2))
    return 0


def cmd_serve_sim(args) -> int:
    import time

    from .data import MarkovChainCorpus, lm_batches
    from .nn import load_model
    from .obs import get_registry
    from .serve import (
        CachePool,
        GenerationEngine,
        Request,
        Scheduler,
        SchedulerConfig,
    )

    model = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    corpus = MarkovChainCorpus(
        vocab_size=model.config.vocab_size, order=args.order,
        seed=args.language_seed,
    )
    shared_prefix: List[int] = []
    if args.shared_prefix_len:
        prefix_inputs, _ = next(
            lm_batches(corpus, 1, args.shared_prefix_len, 1, rng)
        )
        shared_prefix = [int(t) for t in prefix_inputs[0]]
    inputs, _ = next(
        lm_batches(corpus, args.requests, args.prompt_len, 1, rng)
    )
    tiers = max(args.priority_tiers, 1)
    requests = [
        Request(
            f"req-{i:03d}", prompt=shared_prefix + [int(t) for t in row],
            max_new_tokens=args.max_new_tokens, seed=args.seed + i,
            deadline_steps=args.deadline, priority=i % tiers,
        )
        for i, row in enumerate(inputs)
    ]
    speculative = args.speculative_k > 0
    draft_heads = None
    voting = None
    if speculative:
        if args.confidence is not None:
            raise SystemExit(
                "--speculative-k verifies against the plain final head; "
                "it does not compose with --confidence voting decode"
            )
        from .adaptive import ExitHeadSet

        exits = args.exits or [max(1, model.num_layers // 2)]
        draft_heads = ExitHeadSet(model, exit_points=exits, seed=args.seed)
    else:
        voting = _serving_voting(model, args, rng)
    engine = GenerationEngine(
        model, voting=voting, confidence_threshold=args.confidence,
        draft_heads=draft_heads, draft_exit=args.draft_exit,
        draft_k=args.speculative_k,
    )
    budget = args.max_resident_tokens or max(
        sum(r.reserved_tokens for r in requests), 1
    )
    pool = CachePool(
        model.num_layers, budget, share_prefixes=args.prefix_sharing
    )
    scheduler = Scheduler(
        engine, pool,
        SchedulerConfig(max_batch_size=args.max_batch, max_steps=10_000),
    )

    start = time.perf_counter()
    pending = list(requests)
    if not args.arrival_per_step:
        for request in pending:
            scheduler.submit(request)
        pending = []
    while pending or not scheduler.idle:
        for request in pending[: args.arrival_per_step or 0]:
            scheduler.submit(request)
        pending = pending[args.arrival_per_step or 0:]
        scheduler.step()
    wall = time.perf_counter() - start

    results = scheduler.run()
    served = [r for r in results if r.finish_reason != "rejected"]
    new_tokens = sum(len(r.tokens) for r in results)
    ttfts = [r.ttft_steps for r in served if r.ttft_steps >= 0]
    summary = {
        "requests": len(requests),
        "completed": sum(
            r.finish_reason in ("length", "eos") for r in results
        ),
        "rejected": sum(r.finish_reason == "rejected" for r in results),
        "deadline_evictions": sum(
            r.finish_reason == "deadline" for r in results
        ),
        "steps": scheduler.current_step,
        "new_tokens": new_tokens,
        "tokens_per_s": round(new_tokens / wall, 2) if wall > 0 else 0.0,
        "mean_ttft_steps": round(float(np.mean(ttfts)), 3) if ttfts else -1,
        "early_exit_rate": round(
            sum(r.early_exit_tokens for r in results) / max(new_tokens, 1), 4
        ),
    }
    reg = get_registry()
    if speculative:
        drafted = reg.counter("serve/spec/draft_tokens").value
        accepted = reg.counter("serve/spec/accepted_tokens").value
        summary["draft_acceptance_rate"] = round(
            accepted / drafted, 4
        ) if drafted else 0.0
        summary["spec_cycles"] = reg.counter("serve/spec/cycles").value
    if args.prefix_sharing:
        summary["prefix_tokens_reused"] = reg.counter(
            "serve/pool/prefix_tokens_reused"
        ).value
    if tiers > 1:
        summary["preemptions"] = reg.counter("serve/preemptions").value
    print(json.dumps(summary, indent=2))
    return 0


def cmd_cache(args) -> int:
    """Inspect (and optionally prune) an on-disk evaluation cache."""
    from .parallel import EvalCache

    cache = EvalCache(args.cache_dir, namespace=args.namespace)
    files, total = cache.disk_usage()
    out = {
        "cache_dir": args.cache_dir,
        "namespace": args.namespace,
        "files": files,
        "bytes": total,
    }
    if args.prune_to is not None:
        out["removed"] = cache.prune_disk(args.prune_to)
        files, total = cache.disk_usage()
        out["files"] = files
        out["bytes"] = total
    print(json.dumps(out, indent=2))
    return 0


def cmd_report(args) -> int:
    from .obs import format_report, load_report

    report = load_report(args.path)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report, max_rows=args.max_rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Edge-LLM reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a base model checkpoint")
    _add_model_args(p)
    _add_data_args(p)
    _add_telemetry_args(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("evaluate", help="perplexity/QA of a checkpoint")
    _add_model_args(p)
    _add_data_args(p)
    _add_telemetry_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--qa-items", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("compress", help="search a LUC policy")
    _add_model_args(p)
    _add_data_args(p)
    _add_telemetry_args(p)
    _add_parallel_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--budget", type=float, default=0.3)
    p.add_argument("--bits", type=int, nargs="+", default=[2, 4, 8])
    p.add_argument("--ratios", type=float, nargs="+", default=[0.0, 0.3, 0.5])
    p.add_argument("--metric", default="loss_delta",
                   choices=["loss_delta", "kl", "weight_error"])
    p.add_argument("--strategy", default="greedy",
                   choices=["greedy", "evolutionary", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the policy as JSON")
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser(
        "slice", help="structurally rotate-and-slice a checkpoint"
    )
    _add_data_args(p)
    _add_telemetry_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True,
                   help="write the sliced checkpoint here")
    p.add_argument("--ratio", type=float, default=0.5,
                   help="uniform residual-stream keep fraction")
    p.add_argument("--ratios", type=float, nargs="*", default=None,
                   help="per-block keep fractions (overrides --ratio)")
    p.add_argument("--round-to", type=int, default=8,
                   help="round sliced widths to a multiple of this")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("adapt", help="full Edge-LLM pipeline")
    _add_model_args(p)
    _add_data_args(p)
    _add_telemetry_args(p)
    _add_parallel_args(p)
    _add_runtime_args(p)
    _add_dist_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--target-seed", type=int, default=1,
                   help="seed of the downstream language")
    p.add_argument("--budget", type=float, default=0.3)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--exits", type=int, nargs="*", default=None)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("speedup", help="modeled iteration speedup")
    _add_model_args(p)
    _add_data_args(p)
    _add_telemetry_args(p)
    _add_parallel_args(p)
    p.add_argument("--avg-bits", type=int, default=4)
    p.add_argument("--avg-sparsity", type=float, default=0.3)
    p.add_argument("--window", type=int, default=2)
    p.set_defaults(fn=cmd_speedup)

    p = sub.add_parser(
        "generate", help="serve one generation request from a checkpoint"
    )
    _add_data_args(p)
    _add_telemetry_args(p)
    _add_runtime_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", type=int, nargs="+", default=None,
                   help="prompt token ids (default: sample from the corpus)")
    p.add_argument("--prompt-len", type=int, default=8,
                   help="sampled-prompt length when --prompt is omitted")
    p.add_argument("--max-new-tokens", type=int, default=16)
    p.add_argument("--sample", action="store_true",
                   help="sample instead of greedy decoding")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--top-p", type=float, default=None)
    p.add_argument("--eos-token", type=int, default=None)
    p.add_argument("--exits", type=int, nargs="*", default=None,
                   help="decode through a voted mixture of these exit layers")
    p.add_argument("--confidence", type=float, default=None,
                   help="early-exit confidence threshold (needs --exits)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser(
        "serve-sim",
        help="drive the batched serving runtime with synthetic traffic",
    )
    _add_data_args(p)
    _add_telemetry_args(p)
    _add_runtime_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--requests", type=int, default=16)
    p.add_argument("--prompt-len", type=int, default=8)
    p.add_argument("--max-new-tokens", type=int, default=12)
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--max-resident-tokens", type=int, default=None,
                   help="KV-pool token budget (default: admit everything)")
    p.add_argument("--deadline", type=int, default=None,
                   help="per-request deadline in scheduler steps")
    p.add_argument("--arrival-per-step", type=int, default=None,
                   help="stagger arrivals: submit N requests per step "
                        "(default: all up front)")
    p.add_argument("--exits", type=int, nargs="*", default=None,
                   help="decode through a voted mixture of these exit layers "
                        "(with --speculative-k: the draft-head tap depths)")
    p.add_argument("--confidence", type=float, default=None,
                   help="early-exit confidence threshold (needs --exits)")
    p.add_argument("--speculative-k", type=int, default=0,
                   help="draft K tokens per cycle through a shallow exit "
                        "head, verify with one full-depth pass (0 = off)")
    p.add_argument("--draft-exit", type=int, default=None,
                   help="exit depth that drafts (default: auto-select the "
                        "deepest exit in the shallow half)")
    p.add_argument("--shared-prefix-len", type=int, default=0,
                   help="prepend a common system prefix of N tokens to "
                        "every prompt (prefix-sharing traffic)")
    p.add_argument("--prefix-sharing", action="store_true",
                   help="deduplicate common prompt prefixes through the "
                        "cache pool's radix trie")
    p.add_argument("--priority-tiers", type=int, default=1,
                   help="spread requests over N priority tiers "
                        "(round-robin; 0 = highest, may preempt lower)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_serve_sim)

    p = sub.add_parser(
        "cache", help="inspect / prune an on-disk evaluation cache"
    )
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--namespace", default="eval",
                   help="cache namespace subdirectory (default: eval)")
    p.add_argument("--prune-to", type=int, default=None, metavar="BYTES",
                   help="delete oldest shards until the cache fits in "
                        "BYTES (default: inspect only)")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("report", help="pretty-print a telemetry run report")
    p.add_argument("path", help="report JSON written via --telemetry-out")
    p.add_argument("--json", action="store_true",
                   help="dump the raw report instead of formatting it")
    p.add_argument("--max-rows", type=int, default=10,
                   help="telemetry table rows to show per table")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_runtime_args(args)
    telemetry_out = getattr(args, "telemetry_out", None)
    if not telemetry_out:
        return args.fn(args)

    from .obs import use_registry, write_report

    with use_registry() as registry:
        rc = args.fn(args)
        write_report(
            telemetry_out,
            registry,
            meta={"command": args.command, "exit_code": rc},
        )
    print(f"telemetry report written to {telemetry_out}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
