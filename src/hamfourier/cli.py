"""Command-line interface.

Subcommands: generate | features | train | bound | scatter | reproduce.

Option precedence for the experiment knobs: HAMFOURIER_SEED environment
variable (master seed only) > explicit flags > --config JSON file >
built-in defaults.  The config file's keys are the ExperimentConfig field
names (e.g. {"n": 12, "schedule": "1,1,2"}), as in a dataset's sidecar;
ExperimentConfig checks every value as given, wherever it comes from.

Each subcommand prints a refused input (ConfigError) or an unreadable file
(OSError) as "error: <message>" and exits with code 2; other exceptions
propagate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .bounds import (
    BoundInputs,
    noisy_expected_loss_bound,
    sufficient_parameters,
    hoeffding_shots,
    noise_terms,
    expected_loss_bound,
    expected_loss_terms,
)
from .features import BACKENDS
from .hamiltonians import ConfigError
from .labels import KINDS
from .pipeline import (
    METHODS,
    SEED_ENV_VAR,
    ExperimentConfig,
    cmd_features,
    cmd_generate,
    cmd_reproduce,
    cmd_scatter,
    cmd_train_eval,
    json_17g,
    overlap_scatter,
)

#: ExperimentConfig fields, which are the config flags' argparse dests
_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file of config fields")
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--num", type=int, help="number of Hamiltonian samples")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--k", type=int, help="Fourier truncation order K")
    p.add_argument("--c", type=float, help="spectral bound C")
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--shots", type=int,
                   help="shots per estimated circuit (0 = no sampling)")
    p.add_argument("--nstep-schedule", dest="schedule",
                   help="comma-separated Trotter steps per l, e.g. 1,1,2,2")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--w-bound", dest="w_bound", type=float,
                   help="norm budget W for the constrained fit")
    p.add_argument("--alpha", type=float, help="ridge penalty")
    p.add_argument("--split", type=float, help="train fraction")
    p.add_argument("--f", dest="f_kind", choices=KINDS,
                   help="target function kind")
    p.add_argument("--beta", type=float,
                   help="scalar parameter of f (beta / t / threshold)")
    p.add_argument("--coeffs", help="comma-separated fourier coefficients")
    p.add_argument("--state", help="'domain_wall' or a basis bitstring")


def _env_seed() -> int | None:
    """The master seed from HAMFOURIER_SEED, None when it is unset."""
    value = os.environ.get(SEED_ENV_VAR)
    try:
        return None if value is None else int(value)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, "
                          f"got {value!r}") from None


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    try:  # bad JSON or bad UTF-8
        values = json.loads(args.config.read_text()) if args.config else {}
    except ValueError as err:
        raise ConfigError(f"{args.config} is not valid JSON: {err}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{args.config} holds no JSON object")
    values.update((k, v) for k, v in vars(args).items()
                  if k in _FIELDS and v is not None)
    seed = _env_seed()
    if seed is not None:
        values["seed"] = seed
    return ExperimentConfig.from_dict(values)


def _run_bound(args: argparse.Namespace) -> int:
    b = BoundInputs(K=args.k, W=args.w_bound, f_inf=args.f_inf, N_d=args.num,
                    delta=args.delta, eps_K=args.eps_k, eta=args.eta)
    report = {
        "inputs": asdict(b),
        "terms": {**expected_loss_terms(b), **noise_terms(b)},
        "expected_loss_bound": expected_loss_bound(b),
        "noisy_expected_loss_bound": noisy_expected_loss_bound(b),
    }
    if args.shot_eta is not None:
        report["hoeffding_shots"] = hoeffding_shots(args.shot_eta, b.delta, b.K)
    if args.epsilon is not None:
        k_req, n_req = sufficient_parameters(args.epsilon, b.W, b.f_inf)
        report["sufficient_parameters"] = {"epsilon": args.epsilon, "K": k_req,
                                "N_d": n_req}
    print(json_17g(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamfourier",
        description="Fourier-feature learning of spin-chain observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample Hamiltonians + labels")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", type=Path, required=True,
                       help="dataset JSONL path")

    p_feat = sub.add_parser("features", help="compute the feature CSV")
    _add_config_flags(p_feat)
    p_feat.add_argument("--in", dest="in_path", type=Path, required=True,
                        help="dataset JSONL path")
    p_feat.add_argument("--out", type=Path, required=True,
                        help="feature CSV path")

    p_train = sub.add_parser("train", help="fit + evaluate on the 8:2 split")
    _add_config_flags(p_train)
    p_train.add_argument("--in", dest="in_path", type=Path, required=True,
                         help="dataset JSONL path")
    p_train.add_argument("--features", type=Path, required=True,
                         help="feature CSV path")
    p_train.add_argument("--out", type=Path, default=Path("."),
                         help="directory for model.json / metrics.json")

    p_bound = sub.add_parser("bound", help="evaluate the loss bounds")
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--w-bound", dest="w_bound", type=float, required=True)
    p_bound.add_argument("--f-inf", dest="f_inf", type=float, required=True)
    p_bound.add_argument("--num", type=int, required=True, help="N_d")
    p_bound.add_argument("--delta", type=float, required=True)
    p_bound.add_argument("--eps-k", dest="eps_k", type=float, default=0.0)
    p_bound.add_argument("--eta", type=float, default=0.0)
    p_bound.add_argument("--shot-eta", dest="shot_eta", type=float,
                         help="also print the Hoeffding shot count for this eta")
    p_bound.add_argument("--epsilon", type=float,
                         help="also print sufficient (K, N_d) for this target loss")

    p_scat = sub.add_parser("scatter",
                            help="pair exact vs estimated values for plotting")
    _add_config_flags(p_scat)
    p_scat.add_argument("--exact", type=Path, help="exact CSV (pair mode)")
    p_scat.add_argument("--noisy", type=Path, help="estimated CSV (pair mode)")
    p_scat.add_argument("--in", dest="in_path", type=Path,
                        help="dataset JSONL (overlap-scatter mode)")
    p_scat.add_argument("--out", type=Path, required=True)

    p_rep = sub.add_parser("reproduce", help="run a reference 12-qubit row")
    p_rep.add_argument("--row", required=True,
                       help="one of exact12 | trotter12 | shots12")
    p_rep.add_argument("--seed", type=int)
    p_rep.add_argument("--out", type=Path, default=Path("reproduce_out"))

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "bound":
        return _run_bound(args)

    if args.command == "reproduce":
        seed = _env_seed()
        result = cmd_reproduce(args.row, args.out,
                               seed=args.seed if seed is None else seed)
        return 0 if result["pass"] else 1

    config = build_config(args)
    if args.command == "train":
        args.out.mkdir(parents=True, exist_ok=True)
        metrics = cmd_train_eval(config, args.features, args.in_path,
                                 args.out / "model.json",
                                 args.out / "metrics.json")
        print(json_17g(metrics.to_dict()))
        return 0
    if args.command == "generate":
        cmd_generate(config, args.out)
    elif args.command == "features":
        cmd_features(config, args.in_path, args.out)
    elif args.exact and args.noisy:  # scatter's two modes
        cmd_scatter(args.exact, args.noisy, args.out)
    elif args.in_path:
        overlap_scatter(config, args.in_path, args.out)
    else:
        raise ConfigError("scatter needs either --exact/--noisy or --in")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
